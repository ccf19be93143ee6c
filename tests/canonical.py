"""Exact values with their types, for comparing a routine with its oracle."""

from riordan.algebra import MultiPoly, tidy
from riordan.arrays import NonIntegralEntry


def typed(value):
    """value with its type, so that 2 and Fraction(2) differ; a polynomial
    with each coefficient and its type, asserted canonical: no zero
    coefficient, and every integral one an int."""
    if isinstance(value, MultiPoly):
        terms = {m: (c, type(c)) for m, c in value.items()}
        assert all(c and (type(c) is int or c.denominator != 1) for c, _ in terms.values()), value
        return MultiPoly, terms
    return type(value), value


def typed_all(values):
    return [typed(v) for v in values]


def typed_rows(series):
    """The typed rows of a series in x over MultiPoly, as JFraction.rows
    gives rows: row n the y-coefficients of [x^n] up to its last nonzero
    one.  Every engine's oracle is typed_rows(frac.expand(order)), the
    Motzkin walk on MultiPoly, which runs no packed code."""
    return [typed_all(tidy(c) for c in MultiPoly.coerce(s).y_coefficients()) for s in series]


def typed_outcome(build):
    """The typed rows of the triangle build() returns, or the text of the
    NonIntegralEntry it raised."""
    try:
        return [typed_all(row) for row in build().rows]
    except NonIntegralEntry as exc:
        return str(exc)

"""Exact values with their types, for comparing a routine with its oracle,
the coefficient rings the oracle tests draw from, the series-product
oracle of a Riordan array's matrix, and symbolic rows specialised at a
value of r."""

from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from riordan.algebra import MultiPoly, R, Y, tidy
from riordan.arrays import LowerTriMatrix, NonIntegralEntry, _normalize_entry

# Coefficients of one ring per example: int, Fraction or MultiPoly.
rings_by_name = {
    "int": st.integers(-5, 5),
    "Fraction": st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    "MultiPoly": st.sampled_from([0, 1, -2, R, Y, R - 1, Y + 1, 2 * R * Y + 3, R * Fraction(1, 2), R * Fraction(1, 2) - Y, Y * Fraction(-2, 3) + 1]),
}
rings = st.sampled_from(list(rings_by_name.values()))


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


def matrix_by_columns(array, size_n):
    """Column k as the full series product g * f**k, every entry times its
    prefactor: the oracle of RiordanArray.matrix, which reads every array's
    rows from its bivariate GF and so shares no algorithm with it; no
    other code takes column products.  It raises the NonIntegralEntry of
    the first entry, in row order, that is not integral."""
    f = array.f.truncate(size_n)
    cols = [array.g.truncate(size_n)]
    for _ in range(size_n):
        cols.append(cols[-1] * f)
    return LowerTriMatrix(
        [_normalize_entry(array._prefactor(n, k) * cols[k][n]) for k in range(n + 1)] for n in range(size_n + 1)
    )


def at_r(rows, value) -> list[list]:
    """Rows of polynomials in r at r = value, each entry the sum of c *
    value^i over its terms c r^i, the powers of value cached:
    MultiPoly.substitute takes seconds on one triangle at N = 100."""
    power = cache(value.__pow__)
    return [[sum(c * power(i) for (i, _), c in MultiPoly.coerce(e).items()) for e in row] for row in rows]

"""Exact values with their types, for comparing a routine with its oracle."""

from riordan.algebra import MultiPoly


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

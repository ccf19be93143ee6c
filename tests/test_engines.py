"""The row recurrence on packed integers against the MultiPoly loop it
replaced, and a Kronecker certificate of the symbolic triangles at large N
against the Riordan route."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from riordan.algebra import MultiPoly, R, Y
from riordan.arrays import Kind, triangle_from_series
from riordan.families import FamilySpec, dense_family_triple, family_fractions, family_triple, family_matrix
from riordan.series import TruncatedSeries

FLAVORS = (Kind.ORDINARY, Kind.EXPONENTIAL)


def oracle_rows(spec, which, size_n):
    """The row recurrence on MultiPoly entries, as the engine ran before."""
    pair = getattr(family_fractions(spec), which)
    a, b = pair.alpha(0), pair.beta(0)
    rows = [MultiPoly.const(1), a]
    for n in range(2, size_n + 1):
        c = 1 if spec.flavor is Kind.ORDINARY else n - 1
        rows.append(a * rows[-1] + c * b * rows[-2])
    return triangle_from_series(TruncatedSeries(rows[: size_n + 1]))


def outcome(build):
    """A triangle with the type of every entry, or the exception its build raised."""
    try:
        result = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return result, [type(e) for row in result.rows for e in row]


coefficients = st.integers(-5, 5) | st.fractions(min_value=-3, max_value=3, max_denominator=4)


def polys(r_degree, y_degrees):
    terms = st.tuples(st.integers(0, r_degree), st.sampled_from(y_degrees))
    return st.dictionaries(terms, coefficients, max_size=4).map(MultiPoly)


EXTREME_R = [2**1024 * R - R**32, Fraction(1, 3**40) * R**2 + 1]
r_values = st.sampled_from([R, -2, -1, 0, 3, 2 - 3 * R, R**2 - R, Fraction(1, 2) * R, Y, Y**2, *EXTREME_R]) | polys(2, [0])


@given(st.sampled_from(FLAVORS), st.sampled_from(["gamma", "h", "f"]), r_values, st.integers(0, 12))
@example(Kind.EXPONENTIAL, "f", EXTREME_R[0], 8)
@example(Kind.ORDINARY, "h", EXTREME_R[1], 8)
def test_row_recurrence_matches_its_multipoly_loop(flavor, which, r, size):
    spec = FamilySpec(flavor, r)
    assert outcome(lambda: family_matrix(spec, which, size)) == outcome(lambda: oracle_rows(spec, which, size))


@pytest.mark.parametrize("weight", [1, -1, 127, -128, 128, 255, 256, 2**64 - 1, 2**64, -(2**64)])
@pytest.mark.parametrize("scale", [1, R], ids=["int", "poly"])
def test_a_slot_holds_a_coefficient_as_large_as_the_bound(weight, scale):
    # Row 2 of the gamma triangle is 1 + ry: its cell w r is as large as the
    # bound 1 + |w| allows.
    r = weight * scale
    assert family_matrix(FamilySpec(Kind.ORDINARY, r), "gamma", 2).rows[2] == (1, r, 0)


# The exponential Riordan route runs on Fraction coefficients: at N = 100
# it alone takes about 3 s, so that flavour is certified at N = 70.
CERTIFIED_N = {Kind.ORDINARY: 100, Kind.EXPONENTIAL: 70}


def _row_sums(spec, which, size_n):
    """The rows at r = y = 1: the recurrence of the pair's values there."""
    pair = getattr(family_fractions(spec), which)
    a, b = (p(0).substitute(r=1, y=1).constant_value() for p in pair)
    sums = [1, a]
    for n in range(2, size_n + 1):
        sums.append(a * sums[-1] + (1 if spec.flavor is Kind.ORDINARY else n - 1) * b * sums[-2])
    return sums


@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
def test_kronecker_certificate_at_large_n(flavor):
    # Every coefficient is a nonnegative integer at most its row's value at
    # r = y = 1, so it is one base-2^B digit of the entry at r = 2^B, and the
    # Riordan route at that one integer fixes every coefficient.
    size_n = CERTIFIED_N[flavor]
    symbolic = family_triple(FamilySpec(flavor, R), size_n)
    bits = 1 + max(max(_row_sums(FamilySpec(flavor, R), which, size_n)) for which in ("gamma", "h", "f")).bit_length()
    dense = dense_family_triple(FamilySpec(flavor, 2**bits), size_n)
    for sym, den in zip(symbolic, dense):
        for sym_row, den_row in zip(sym.rows, den.rows):
            for entry, value in zip(sym_row, den_row):
                terms = [((0, 0), entry)] if isinstance(entry, int) else list(entry.items())
                assert all(0 <= c < 2**bits for _, c in terms)
                assert sum(c << (bits * i) for (i, _), c in terms) == value

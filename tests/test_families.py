from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from canonical import at_r, typed_all

from riordan.algebra import R, Y
from riordan.arrays import LowerTriMatrix, triangle_from_series
from riordan.cold import (
    NotPalindromic,
    RiordanArray,
    dense_family_triple,
    f_closed_row,
    face_matrix,
    family_array,
    gamma_closed_row,
    gamma_from_h,
    h_closed_row,
    pascal_matrix,
)
from riordan.families import (
    FamilySpec,
    Kind,
    f_matrix,
    family_fractions,
    family_matrix,
    family_triple,
    gamma_matrix,
    h_matrix,
    member_fraction,
    named_triple,
)
from riordan.jfraction import IndexPoly, JFraction
from riordan.oeis import FIXTURES, check_triangle
from riordan.series import TruncatedSeries

ORD = FamilySpec(Kind.ORDINARY, R)
EXP = FamilySpec(Kind.EXPONENTIAL, R)


def test_family_reduces_to_pascal_at_r_zero():
    # Against oracles that share no code with family_array: g and f written
    # out, 1/(1-x) and x/(1-x) or e^x and x, and the rows C(n, k).
    written = {Kind.ORDINARY: ([1] * 11, [0] + [1] * 10), Kind.EXPONENTIAL: ([Fraction(1, factorial(n)) for n in range(11)], [0, 1] + [0] * 9)}
    for kind, (g, f) in written.items():
        fam = family_array(FamilySpec(kind, 0), 10)
        assert list(fam.g) == g and list(fam.f) == f
        assert fam.matrix(10).rows == tuple(tuple(comb(n, k) for k in range(n + 1)) for n in range(11))


def test_generalized_flavor_is_rejected():
    with pytest.raises(ValueError):
        FamilySpec(Kind.GENERALIZED, 1)


def test_family_rows_are_pascal_like():
    assert h_matrix(ORD, 8).is_pascal_like()
    assert h_matrix(EXP, 8).is_pascal_like()
    assert h_matrix(FamilySpec(Kind.ORDINARY, 3), 8).is_pascal_like()
    assert h_matrix(ORD, 8).entry(4, 1) == h_closed_row(4)[1] == 3 * R + 4


def test_gamma_closed_examples():
    assert gamma_closed_row(4) == [1, 3 * R, R**2, 0, 0]
    assert all(gamma_closed_row(n)[0] == 1 for n in range(10))
    assert gamma_closed_row(3) == [1, 2 * R, 0, 0]  # 2k > n falls outside the support


def test_h_closed_examples():
    assert h_closed_row(2) == [1, R + 2, 1]
    assert all(h_closed_row(n)[0] == h_closed_row(n)[n] == 1 for n in range(10))


def test_f_closed_examples():
    assert f_closed_row(4)[0] == R**2 + 12 * R + 16
    assert f_closed_row(3)[2] == 2 * R + 6
    assert all(f_closed_row(n)[n] == 1 for n in range(10))


def _h_entry(n, k, r):
    """h[n,k] = sum_j C(k,j) C(n-j, n-k-j) r^j, one entry at a time: the
    closed form's per-entry sum, kept as the oracle of its rows."""
    return sum(comb(k, j) * comb(n - j, n - k - j) * r**j for j in range(k + 1) if j <= n - k)


@given(st.sampled_from([R, 0, 1, -1, 3, R - 2, R * Y]), st.integers(0, 12))
def test_closed_rows_match_their_entry_sums(r, n):
    h = [_h_entry(n, k, r) for k in range(n + 1)]
    assert h_closed_row(n, r) == h
    assert f_closed_row(n, r) == [sum(h[i] * comb(i, k) for i in range(n + 1)) for k in range(n + 1)]
    assert gamma_closed_row(n, r) == [comb(n - k, n - 2 * k) * r**k if 2 * k <= n else 0 for k in range(n + 1)]


@pytest.mark.parametrize("rv", range(6))
def test_exponential_family_entries_are_integers(rv):
    # The Riordan route, whose n!/k! prefactor must cancel the 1/2 in x(1 + rx/2).
    m = family_array(FamilySpec(Kind.EXPONENTIAL, rv), 12).matrix(12)  # raises NonIntegralEntry otherwise
    assert m.entry(2, 1) == rv + 2
    assert m.is_pascal_like()


FLAVORS = (Kind.ORDINARY, Kind.EXPONENTIAL)


@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
@pytest.mark.parametrize("r", [R, 0, 1, 3, -1, -2], ids=str)
def test_row_recurrences_match_the_riordan_route(flavor, r):
    spec = FamilySpec(flavor, r)
    for size in (0, 1, 2, 12):
        h = family_array(spec, max(size, 1)).matrix(size)
        assert h_matrix(spec, size) == h
        assert f_matrix(spec, size) == face_matrix(h)
        assert gamma_matrix(spec, size) == gamma_from_h(h)
        assert family_triple(spec, size) == dense_family_triple(spec, size)


@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
def test_the_riordan_route_at_symbolic_r_matches_the_row_recurrences_at_n_30(flavor):
    # The Riordan route at the symbolic r, every step on MultiPolys, as only
    # the tests run it: verify props takes it at one integer r = 2^W.
    spec = FamilySpec(flavor, R)
    dense, rows = dense_family_triple(spec, 30), family_triple(spec, 30)
    assert [[typed_all(row) for row in m.rows] for m in dense] == [[typed_all(row) for row in m.rows] for m in rows]


def _assert_specialisation_commutes(flavor, which, value, size):
    build = {"gamma": gamma_matrix, "h": h_matrix, "f": f_matrix}[which]
    specialised = at_r(build(FamilySpec(flavor, R), size).rows, value)
    assert LowerTriMatrix(specialised) == build(FamilySpec(flavor, value), size)


@given(st.sampled_from(FLAVORS), st.sampled_from(["gamma", "h", "f"]), st.integers(-3, 5), st.integers(0, 16))
def test_specialisation_commutes_with_construction(flavor, which, value, size):
    _assert_specialisation_commutes(flavor, which, value, size)


@pytest.mark.parametrize("value", [-3, 2**64], ids=["-3", "2^64"])
@pytest.mark.parametrize("which", ["gamma", "h", "f"])
@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
def test_specialisation_commutes_with_construction_at_large_n(flavor, which, value):
    _assert_specialisation_commutes(flavor, which, value, 60)


@pytest.mark.parametrize("which", ["gamma", "h", "f"])
@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
def test_specialisation_commutes_with_construction_at_n_100(flavor, which):
    _assert_specialisation_commutes(flavor, which, 2**64, 100)


def test_gamma_from_h_examples():
    assert gamma_from_h(LowerTriMatrix([[1], [1, 1]])).rows == ((1,), (1, 0))

    narayana = LowerTriMatrix([[1], [1, 1], [1, 3, 1], [1, 6, 6, 1], [1, 10, 20, 10, 1]])
    gamma = gamma_from_h(narayana)
    assert check_triangle(gamma, FIXTURES["A055151"]).ok

    with pytest.raises(NotPalindromic):
        gamma_from_h(LowerTriMatrix([[1], [2, 1]]))


# Palindromic rows of ints or of polynomials in r, whatever their sign.
small = st.integers(-9, 9)
in_r = st.builds(lambda a, b, c: a + b * R + c * R**3, small, small, small)
palindromic_rows = st.sampled_from([st.integers(-50, 50), in_r]).flatmap(
    lambda ring: st.tuples(*(st.lists(ring, min_size=n // 2 + 1, max_size=n // 2 + 1) for n in range(7)))
).map(lambda halves: [half + half[: n - n // 2][::-1] for n, half in enumerate(halves)])


@given(palindromic_rows)
def test_gamma_from_h_rows_expand_back_to_the_h_rows(rows):
    # sum_k gamma[n,k] y^k (1+y)^(n-2k) gives row n back, the check that the
    # elimination leaves no remainder, which palindromy forces.
    gamma = gamma_from_h(LowerTriMatrix(rows))
    for n, (row, coeffs) in enumerate(zip(rows, gamma.rows)):
        assert not any(coeffs[n // 2 + 1 :])
        assert [sum(coeffs[k] * comb(n - 2 * k, j - k) for k in range(min(j, n - j) + 1)) for j in range(n + 1)] == row


def test_gf_chain_collapses_at_r_zero():
    # With b = 0 the fraction (a(1 - i); b(2 - i)) is 1/(1 - ax).
    gamma, h, f = family_fractions(FamilySpec(Kind.ORDINARY, 0))
    assert gamma.beta.coeffs == h.beta.coeffs == f.beta.coeffs == ()
    assert gamma.expand(8) == TruncatedSeries.ratio([1], [1, -1], 8)
    assert h.expand(8) == TruncatedSeries.ratio([1], [1, -(Y + 1)], 8)
    assert f.reversed().expand(8) == TruncatedSeries.ratio([1], [1, -(2 * Y + 1)], 8)


def test_named_triple_details():
    assert family_matrix("hypercube", "h", 8) == pascal_matrix(8)
    assert family_matrix("hypercube", "f", 2).rows[2] == (4, 4, 1)
    assert family_matrix("associahedron", "h", 3).rows == ((1,), (1, 1), (1, 3, 1), (1, 6, 6, 1))
    assert family_matrix("permutahedron", "h", 3).rows == ((1,), (1, 1), (1, 4, 1), (1, 11, 11, 1))
    for name in ("simplex", "hypercube", "cross-polytope"):  # only the two fraction triples
        with pytest.raises(ValueError):
            named_triple(name)


def _fraction(alpha, beta):
    return JFraction(IndexPoly.from_coeffs(alpha), IndexPoly.from_coeffs(beta))


def test_maps_derive_the_classical_fraction_triples():
    # The h and f members the maps derive from each stored gamma datum, with
    # the polytopes' f in reversed form.
    assert named_triple("associahedron") == (
        _fraction([1], [Y]),
        _fraction([Y + 1], [Y]),
        _fraction([2 * Y + 1], [Y * (Y + 1)]),
    )
    assert named_triple("permutahedron") == (
        _fraction([1, 1], [0, Y, Y]),
        _fraction([Y + 1, Y + 1], [0, Y, Y]),
        _fraction([2 * Y + 1, 2 * Y + 1], [0, Y * (Y + 1), Y * (Y + 1)]),
    )
    # The ordinary family's fractions (a(1 - i); b(2 - i)) stop at level 1;
    # the exponential family's (a; i b) are Hermite fractions.
    for r in (R, 0, -1, 3):
        pairs = ((1, r * Y), (Y + 1, r * Y), (Y + 2, r * (Y + 1)))
        assert family_fractions(FamilySpec(Kind.ORDINARY, r)) == tuple(_fraction([a, -a], [2 * b, -b]) for a, b in pairs)
        assert family_fractions(FamilySpec(Kind.EXPONENTIAL, r)) == tuple(_fraction([a], [0, b]) for a, b in pairs)


@cache
def _stirling2(n, k):
    return int(n == k) if not n or not k else k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@cache
def _eulerian(n, k):
    if n == 1 or not 1 <= k <= n:
        return int(n == k == 1)
    return k * _eulerian(n - 1, k) + (n - k + 1) * _eulerian(n - 1, k - 1)


@cache
def _permutahedron_gamma(n, k):
    if n == 1 or k < 0:
        return int(n == 1 and k == 0)
    return (k + 1) * _permutahedron_gamma(n - 1, k) + 2 * (n - 2 * k) * _permutahedron_gamma(n - 1, k - 1)


OEIS_DEFINITIONS = {  # each polytope triangle's OEIS definition: its fraction, and row n of T(n, k), lowest k first
    "A019538": ("permutahedron", "f", lambda n: [factorial(k) * _stirling2(n, k) for k in range(1, n + 1)]),
    "A008292": ("permutahedron", "h", lambda n: [_eulerian(n, k) for k in range(1, n + 1)]),
    "A101280": ("permutahedron", "gamma", lambda n: [_permutahedron_gamma(n, k) for k in range((n + 1) // 2)]),
    "A055151": ("associahedron", "gamma",
                lambda n: [factorial(n) // (factorial(n - 2 * k) * factorial(k) * factorial(k + 1)) for k in range(n // 2 + 1)]),
    "A001263": ("associahedron", "h", lambda n: [comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)]),
    "A033282": ("associahedron", "f", lambda n: [comb(n - 3, k) * comb(n + k - 1, k) // (k + 1) for k in range(n - 2)]),
}
OEIS_N = 100


@pytest.mark.parametrize("anumber", list(OEIS_DEFINITIONS))
def test_polytope_triangles_match_their_oeis_definitions_at_large_n(anumber):
    # Each definition must first give the fixture's rows as stored (OEIS
    # row offset + j is the fixture's row j, read as OEIS reads it), so
    # that a misremembered one fails there, and only then the fraction's
    # rows to N = 100, far beyond the 9-11 rows the fixtures reach.
    polytope, which, definition = OEIS_DEFINITIONS[anumber]
    fixture = FIXTURES[anumber]
    rows = [definition(fixture.offset + j) for j in range(OEIS_N + 1)]
    assert rows[: len(fixture.row_lengths)] == fixture.rows()
    assert member_fraction(polytope, which).rows(OEIS_N) == rows


CROSS_N = 60


def test_ordinary_family_matches_its_closed_forms_at_large_n():
    h, gamma = h_matrix(ORD, CROSS_N), gamma_matrix(ORD, CROSS_N)
    assert all(list(h.rows[n]) == h_closed_row(n) for n in range(CROSS_N + 1))
    assert all(list(gamma.rows[n]) == gamma_closed_row(n) for n in range(CROSS_N + 1))
    f = f_matrix(ORD, CROSS_N)
    assert all(list(f.rows[n]) == f_closed_row(n) for n in range(CROSS_N + 1))
    assert f == face_matrix(h)


LARGE_N = 40


def test_exponential_face_rows_are_a_fraction_at_large_n():
    frac = JFraction(IndexPoly.constant(2 * Y + 1), IndexPoly.from_coeffs([0, 2 * Y * (Y + 1)]))
    assert triangle_from_series(frac.expand(LARGE_N)) == f_matrix(FamilySpec(Kind.EXPONENTIAL, 2), LARGE_N).reversed()


def test_simplex_face_factorization_consistency():
    h = RiordanArray(TruncatedSeries.ratio([1], [1, -1]), TruncatedSeries.x()).matrix(8)
    assert family_matrix("simplex", "h", 8) == h
    assert family_matrix("simplex", "f", 8) == face_matrix(h)


def test_exponential_face_matrix_via_spec():
    m = f_matrix(FamilySpec(Kind.EXPONENTIAL, 1), 4).reversed()
    assert m.rows[3] == (1, 9, 21, 14)
    assert m.rows[4] == (1, 14, 57, 86, 43)

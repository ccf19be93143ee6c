"""The props suite of the verify battery: twelve named identities.

The identities of the triangle families: face GFs, closed forms, fraction
triples, the polytope transfer map and the Narayana array, with the
Riordan-product route (:mod:`riordan.cold`) as a further oracle of the row
recurrences.  This module registers them, in suite order, as ``CHECKS``;
:mod:`riordan.verify` loads it only for ``verify props`` and ``all``, when
``verify.CHECKS`` is first looked up, and for the tests.  No identity runs
a group law, so ``verify props`` loads no :mod:`riordan.laws`.

No function that perfbench's tracer wraps (``triangle_from_series``,
``family_array``, ``named_triple``, ``check_triangle``) is bound here by
name; each is called through its module.  This module can be first
imported while the tracer is installed, and a name bound then would keep
the tracer's wrapper after it is removed.
"""

from fractions import Fraction
from functools import cache, partial
from math import comb

from . import arrays, cold, families, oeis, walk
from .algebra import MultiPoly, R, _norm, _width
from .cold import (
    RiordanArray,
    binomial_array,
    dense_family_triple,
    egf_to_ogf,
    face_array,
    gamma_closed_row,
    h_closed_row,
    integer_coeffs,
    narayana_array,
    narayana_closed,
    pascal_matrix,
)
from .families import FamilySpec, Kind, family_fractions, family_triple
from .oeis import FIXTURE_SOURCES, FIXTURES, _aerated_double_factorials, _triangle_fixture, aerated
from .series import TruncatedSeries
from .verify import Check

_ORD = FamilySpec(Kind.ORDINARY, R)
_EXP = FamilySpec(Kind.EXPONENTIAL, R)

CHECKS: list = []  # the props suite's Check records, in suite order


def _check(name: str):
    """Register the decorated function as the next props check."""

    def register(fn):
        CHECKS.append(Check("props", name, fn))
        return fn

    return register


# -- family identities --------------------------------------------------------


_family = cache(family_triple)  # gamma/h/f rows shared by the checks that use them
_fractions = cache(family_fractions)


@_check("simplex face matrix factors through the binomial array")
def _simplex_factorization() -> bool:
    h = RiordanArray(TruncatedSeries.ratio([1], [1, -1], 16), TruncatedSeries.x(16))
    f = RiordanArray(TruncatedSeries.ratio([1], [1, -2, 1], 16), TruncatedSeries.ratio([0, 1], [1, -1], 16))
    reduced = f * binomial_array(Kind.ORDINARY, 16).inverse()
    return (
        reduced.g == h.g
        and reduced.f == h.f
        and reduced.matrix(6) == h.matrix(6)
        and face_array(h).matrix(6) == f.matrix(6)
    )


@_check("hypercube face matrix factors through the binomial array")
def _hypercube_factorization() -> bool:
    b2 = RiordanArray(TruncatedSeries([0, 2], 16).exp(), TruncatedSeries.x(16), Kind.EXPONENTIAL)
    bexp = binomial_array(Kind.EXPONENTIAL, 16)
    reduced = b2 * bexp.inverse()
    square = bexp * bexp
    return (
        reduced.g == bexp.g
        and reduced.f == bexp.f
        and reduced.matrix(6) == pascal_matrix(6)
        and square.g == b2.g
        and square.f == b2.f
    )


# Three checks compare the Riordan route, which the symbolic r would send
# through series of polynomials, at one integer r = 2^W with the row
# recurrences' rows packed there (_packed_rows), and the walks of the
# fractions are compared there too (_walk_matches).  Substituting 2^W for r
# is a ring map, injective on polynomials whose coefficients are below
# 2^(W-1) in absolute value, so each check is exact where W holds every
# coefficient in r of both its sides (_family_bound).  A row is then
# compared as one int, its entries at y = 2^V, V wide enough for every
# entry of both sides at r = 2^W, where balanced digits are unique.


@cache  # the face GF, the closed forms and the walks ask for the same bounds
def _family_bound(spec: FamilySpec, size: int) -> int:
    """A bound on every coefficient in r of the entries of the family's
    gamma, h and f matrices to row size, from the norms of its array's g
    and f.  Row n of h is [x^n] g / (1 - y f) for an ordinary array and
    n! [x^n] g exp(y f) for an exponential one, so its norm H_n, summed
    over y and r, is at most the same coefficient of |g| / (1 - |f|) or of
    |g| exp(|f|), each coefficient of g and f replaced by its norm.  Row n
    of f, sum_j h[n,j] C(j,k), has norm at most 2^n H_n.  So has row n of
    gamma: h_n is palindromic, so y^(-n/2) h_n(y) is sum_k gamma[n,k]
    s^(n-2k) in s = y^(1/2) + y^(-1/2), and also sum_(j<n/2) h[n,j]
    L_(n-2j)(s), plus h[n,n/2] for even n, where y^(m/2) + y^(-m/2) is the
    Lucas polynomial L_m(s), whose coefficients sum in absolute value to
    the Lucas number L_m <= 2^m.  The bound is the largest 2^n H_n.

    The exponential H_n = n! [x^n] |g| exp(|f|) is computed in Hurwitz
    form, on ints: with g = e^x and f = x + r x^2/2 (the family's array,
    :func:`~riordan.cold.family_array`), n! |g_n| is 1 and the Hurwitz
    coefficients of |f| are F_1 = 1 and F_2 = |r|(1).  E = exp(|f|) solves
    E_n = sum_k C(n-1, k-1) F_k E_(n-k) from E_0 = 1 (the recurrence of
    :func:`~riordan.cold.series_exp`), and the product with |g| is the
    binomial convolution H_n = sum_j C(n, j) E_j."""
    if spec.flavor is Kind.ORDINARY:
        array = cold.family_array(spec, max(size, 1))
        g, f = (TruncatedSeries([_norm(MultiPoly.coerce(c)) for c in s.coeffs[: size + 1]]) for s in (array.g, array.f))
        rows = g * (1 - f).inverse()
    else:
        hurwitz_f = ((1, 1), (2, _norm(MultiPoly.coerce(spec.r))))
        exp = [1]
        for n in range(1, size + 1):
            exp.append(sum(comb(n - 1, k - 1) * fk * exp[n - k] for k, fk in hurwitz_f if k <= n))
        rows = [sum(comb(n, j) * exp[j] for j in range(n + 1)) for n in range(size + 1)]
    return max(2**n * norm for n, norm in enumerate(rows))


def _family_width(spec: FamilySpec, size: int) -> int:
    """W of :func:`_ordinary_face_gf`, :func:`_exponential_fraction_triple`
    and :func:`_walk_matches`, as :func:`_family_bound` proves it."""
    return _width(_family_bound(spec, size))


def _closed_forms_width(size: int) -> int:
    """W of :func:`_ordinary_closed_forms`, as its docstring proves it."""
    return _width(max(2 * 8**size, _family_bound(_ORD, size)))


def _packed_rows(matrix: arrays.LowerTriMatrix, width: int) -> tuple:
    """The rows of a matrix of polynomials in r, each entry at r = 2^width."""
    return tuple(tuple(cold._pack_var(e, width, "r") for e in row) for row in matrix.rows)


def _packed_y_rows(rows, width: int) -> list[int]:
    """Each row of ints as one int, entry k at y = 2^width."""
    return [cold._pack_x(row, width) for row in rows]


def _face_gf_width(width: int, size: int) -> int:
    """V of :func:`_ordinary_face_gf` at r = 2^width, as its docstring proves it."""
    return _width(1 << width * (size // 2 + 1))


def _walk_width(frac, rows, order: int) -> int:
    """V of :func:`_walk_matches` for the walk of frac, free of r, and the
    rows it is compared with, as its docstring proves it."""
    return _width(max(walk._bound(frac, order), *(abs(e) for row in rows for e in row)))


@cache  # the face GF and the GF chain share a walk, as the exponential checks do
def _walk_matches(spec: FamilySpec, which: str, order: int) -> bool:
    """The walk of the family's ``which`` fraction gives its triangle, f in
    reversed form, the orientation of the OEIS face triangles: at r = 2^W,
    W ``_family_width(spec, order)`` for a symbolic r, the fraction is free
    of r, and its walk's packed values (:func:`riordan.walk.packed`) at
    y = 2^V are the recurrence's rows there, each entry packed at r = 2^W.
    The width V: the norm walk of the fraction at r = 2^W
    (``walk._bound``) bounds every y-coefficient of the walk's values, and
    the rows' entries are at most their largest, so V, ``_width`` of the
    larger, holds every digit of both sides.  The triangle is read from
    the shared triple (``_family``)."""
    triangle = getattr(_family(spec, order), which)
    if isinstance(spec.r, MultiPoly):
        width = _family_width(spec, order)
        spec, rows = FamilySpec(spec.flavor, 1 << width), _packed_rows(triangle, width)
    else:
        rows = triangle.rows
    frac = getattr(_fractions(spec), which)
    if which == "f":
        frac, rows = frac.reversed(), [row[::-1] for row in rows]
    y_width = _walk_width(frac, rows, order)
    return walk.packed(frac, order, y_width) == _packed_y_rows(rows, y_width)


@_check("ordinary family face GF (plain and reversed forms)")
def _ordinary_face_gf() -> bool:
    """The face array's bivariate GF, at r = 2^W and y = 2^V, is the face
    matrix by rows: its x^n coefficient is sum_k f[n,k] 2^(V k)
    (:meth:`RiordanArray._rows_at`, on ints), with f the recurrence's face
    matrix packed at r = 2^W, W ``_family_width(_ORD, 12)``; and the
    reversed fraction walks to the reversed face rows (:func:`_walk_matches`).
    The width V: r enters the array's f = x (1 + r x) / (1 - x) only with
    x^2, so every entry f[n,k] of either side is, at the symbolic r, a
    polynomial in r of degree at most n/2 <= 6, each coefficient below
    2^(W-1) in absolute value.  At r = 2^W it is below 2^(W (6 + 1)) in
    absolute value, and V is ``_width`` of that."""
    width = _family_width(_ORD, 12)
    y_width = _face_gf_width(width, 12)
    packed = face_array(cold.family_array(FamilySpec(Kind.ORDINARY, 1 << width), 12))._rows_at(12, 1 << y_width)
    return packed == _packed_y_rows(_packed_rows(_family(_ORD, 12).f, width), y_width) and _walk_matches(_ORD, "f", 12)


@_check("ordinary family closed forms match the constructions")
def _ordinary_closed_forms() -> bool:
    """The row recurrences' triple equals the Riordan route's and, row by
    row, the closed forms.  At r = R all three meet at r = 2^W, on ints:
    the Riordan route and the closed forms run there, and the rows' entries
    are packed there.  A coefficient of a closed form is at most 2 8^n
    (h's C(k,j) C(n-j, n-k-j) <= 4^n, f's sums of C(i,k) <= 2^(n+1) of
    them, gamma's C(n-k, n-2k) <= 2^n), and one of an entry of either
    triple at most ``_family_bound``, so W is ``_width`` of the larger."""
    cases = [(R, 12)] + [(rv, 8) for rv in range(6)]
    for r, size in cases:
        fam = _family(FamilySpec(Kind.ORDINARY, r), size)
        rows = [m.rows for m in fam]
        if isinstance(r, MultiPoly):
            width = _closed_forms_width(size)
            r, rows = 1 << width, [_packed_rows(m, width) for m in fam]
        if rows != [m.rows for m in dense_family_triple(FamilySpec(Kind.ORDINARY, r), size)]:
            return False
        gamma, h, f = rows
        for n in range(size + 1):
            closed_h = h_closed_row(n, r)  # f_closed_row(n, r) is _face_row(closed_h)
            if list(h[n]) != closed_h or list(f[n]) != cold._face_row(closed_h) or list(gamma[n]) != gamma_closed_row(n, r):
                return False
    return True


@_check("ordinary family GF chain reproduces gamma/h/f rows")
def _ordinary_gf_chain() -> bool:
    return all(_walk_matches(_ORD, which, 12) for which in ("gamma", "h", "f"))


@_check("exponential family reversed face rows match the fraction")
def _exponential_weighted_fraction() -> bool:
    return all(_walk_matches(FamilySpec(Kind.EXPONENTIAL, r), "f", 10) for r in (R, 0, 1, 2, 3))


@_check("exponential family fraction triple (gamma, h, face)")
def _exponential_fraction_triple() -> bool:
    """The walks of the three fractions give the triple, and the Riordan
    route's triple at r = 2^W is the recurrences' packed there, W
    ``_family_width(_EXP, 10)``."""
    walks = all(_walk_matches(_EXP, which, 10) for which in ("gamma", "h", "f"))
    width = _family_width(_EXP, 10)
    dense = dense_family_triple(FamilySpec(Kind.EXPONENTIAL, 1 << width), 10)
    return walks and [_packed_rows(m, width) for m in _family(_EXP, 10)] == [m.rows for m in dense]


@_check("aerated double factorial expansion")
def _aerated_double_factorial_routes() -> bool:
    """The oeis check's J-fraction (0; i) and the EGF exp(x^2/2), rescaled."""
    exponential = TruncatedSeries([0, 0, Fraction(1, 2)], 20).exp()
    want = aerated(FIXTURES["A001147"].values, 21)
    return list(_aerated_double_factorials()) == want and integer_coeffs(egf_to_ogf(exponential)) == want


def _polytope_fixtures(name: str) -> bool:
    return all(
        _triangle_fixture(anumber).ok
        for anumber, source in FIXTURE_SOURCES.items()
        if source and source[0] == name
    )


for _name in ("associahedron", "permutahedron"):
    _check(f"{_name} fraction triple matches its fixtures")(
        partial(_polytope_fixtures, _name)
    )


@_check("index transfer maps associahedron onto permutahedron")
def _transfer_map() -> bool:
    assoc, perm = families.named_triple("associahedron"), families.named_triple("permutahedron")
    return all(a.transfer() == p for a, p in zip(assoc, perm))


@_check("weighted factorial-pair array gives Narayana numbers")
def _narayana() -> bool:
    nar = narayana_array(10).matrix(10)
    closed = all(
        nar.entry(n, k) == narayana_closed(n, k) for n in range(11) for k in range(n + 1)
    )
    return closed and oeis.check_triangle(nar, FIXTURES["A001263"]).ok

"""The props suite of the verify battery: twelve named identities.

The identities of the triangle families: face GFs, closed forms, fraction
triples, the polytope transfer map and the Narayana array, with the
Riordan-product route (:mod:`riordan.cold`) as a further oracle of the row
recurrences.  This module registers them, in suite order, as ``CHECKS``;
:mod:`riordan.verify` loads it only for ``verify props`` and ``all``, and
for the tests.  No identity runs a group law, so ``verify props`` loads no
:mod:`riordan.laws`.

No function that perfbench's tracer wraps (``triangle_from_series``,
``family_array``, ``named_triple``, ``check_triangle``) is bound here by
name; each is called through its module.  This module can be first
imported while the tracer is installed, and a name bound then would keep
the tracer's wrapper after it is removed.
"""

from fractions import Fraction
from functools import cache, partial

from . import arrays, cold, families, oeis, walk
from .algebra import MultiPoly, R, _width
from .cold import (
    RiordanArray,
    binomial_array,
    dense_family_triple,
    egf_to_ogf,
    f_closed_row,
    face_array,
    gamma_closed_row,
    h_closed_row,
    integer_coeffs,
    narayana_array,
    narayana_closed,
    pascal_matrix,
)
from .families import FamilySpec, GammaHFTriple, Kind, family_fractions
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


_fractions = cache(family_fractions)


@cache  # the triangles shared by the checks that compare them
def _triangle(spec: FamilySpec, which: str, size: int) -> arrays.LowerTriMatrix:
    """The recurrences' ``which`` triangle of the family, rows 0..size."""
    return getattr(_fractions(spec), which).triangle(size)


def _family(spec: FamilySpec, size: int) -> GammaHFTriple:
    """The recurrences' gamma, h and f triangles of the family."""
    return GammaHFTriple(*(_triangle(spec, which, size) for which in GammaHFTriple._fields))


@_check("simplex face matrix factors through the binomial array")
def _simplex_factorization() -> bool:
    """The face array f over the binomial array is the h-array, as g and f,
    and the face array of h is f, as a matrix.  The quotient's matrix is
    not compared with h's: an array's matrix is computed from its kind, g
    and f alone, and both arrays are ordinary, so once g and f are equal
    the matrices are too."""
    h = RiordanArray(TruncatedSeries.ratio([1], [1, -1], 16), TruncatedSeries.x(16))
    f = RiordanArray(TruncatedSeries.ratio([1], [1, -2, 1], 16), TruncatedSeries.ratio([0, 1], [1, -1], 16))
    reduced = f * binomial_array(Kind.ORDINARY, 16).inverse()
    return reduced.g == h.g and reduced.f == h.f and face_array(h).matrix(6) == f.matrix(6)


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
# coefficient in r of both its sides.  W is ``_width`` of the family
# array's majorant at y = 2 (RiordanArray._bound), which bounds every
# coefficient in r of the family's h, f and gamma rows (cold._majorant).  A
# row is then compared as one int, its entries at y = 2^V, where balanced
# digits are unique: V is ``_width`` of the norm run of the side computed
# at r = 2^W, the face array's majorant or the fraction's norm walk.


@cache  # the checks of each family pack it at the same r = 2^W
def _r_width(spec: FamilySpec, size: int) -> int:
    """W for the family's triangles to row size: ``_width`` of its array's
    majorant at y = 2."""
    return _width(cold.family_array(spec, size)._bound(size, 2))


def _packed_rows(matrix: arrays.LowerTriMatrix, width: int) -> tuple:
    """The rows of a matrix of polynomials in r, each entry at r = 2^width."""
    return tuple(tuple(cold._pack_var(e, width, "r") for e in row) for row in matrix.rows)


@cache  # the face GF and the GF chain share a walk, as the exponential checks do
def _walk_matches(spec: FamilySpec, which: str, order: int) -> bool:
    """The walk of the family's ``which`` fraction gives its triangle, f in
    reversed form, the orientation of the OEIS face triangles: at r = 2^W
    for a symbolic r, the fraction is free of r, and its walk's packed
    values (:func:`riordan.walk.packed`) at y = 2^V are the recurrence's
    rows there, each entry packed at r = 2^W.  The width V: the norm walk
    of the fraction at r = 2^W (``walk._norm_walk``) bounds every
    y-coefficient of the walk's values, and the rows' entries are at most
    their largest, so V, ``_width`` of the larger, holds every digit of
    both sides."""
    rows = _triangle(spec, which, order).rows
    if isinstance(spec.r, MultiPoly):
        width = _r_width(spec, order)
        spec, rows = FamilySpec(spec.flavor, 1 << width), _packed_rows(_triangle(spec, which, order), width)
    frac = getattr(_fractions(spec), which)
    if which == "f":
        frac, rows = frac.reversed(), [row[::-1] for row in rows]
    y_width = _width(max(*walk._norm_walk(frac, order), *(abs(e) for row in rows for e in row)))
    return walk.packed(frac, order, y_width) == [cold._pack_x(row, y_width) for row in rows]


@_check("ordinary family face GF (plain and reversed forms)")
def _ordinary_face_gf() -> bool:
    """The face array's bivariate GF, at r = 2^W and y = 2^V, is the face
    matrix by rows: its x^n coefficient is sum_k f[n,k] 2^(V k)
    (:meth:`RiordanArray._rows_at`, on ints), with f the recurrence's face
    matrix packed at r = 2^W; and the reversed fraction walks to the
    reversed face rows (:func:`_walk_matches`).  V is ``_width`` of the
    face array's majorant at r = 2^W, which bounds every entry of its
    matrix."""
    width = _r_width(_ORD, 12)
    face = face_array(cold.family_array(FamilySpec(Kind.ORDINARY, 1 << width), 12))
    y_width = _width(face._bound(12))
    packed = face._rows_at(12, 1 << y_width)
    rows = _packed_rows(_triangle(_ORD, "f", 12), width)
    return packed == [cold._pack_x(row, y_width) for row in rows] and _walk_matches(_ORD, "f", 12)


@_check("ordinary family closed forms match the constructions")
def _ordinary_closed_forms() -> bool:
    """The row recurrences' triple equals the Riordan route's and, row by
    row, the closed forms.  At r = R all three meet at r = 2^W, on ints:
    the Riordan route and the closed forms run there, and the rows' entries
    are packed there.  The closed forms' coefficients are non-negative, so
    their norms are the closed forms at r = 1, and W is ``_width`` of the
    largest of those and of the family array's majorant at y = 2."""
    cases = [(R, 12)] + [(rv, 8) for rv in range(6)]
    for r, size in cases:
        fam = _family(FamilySpec(Kind.ORDINARY, r), size)
        rows = [m.rows for m in fam]
        if isinstance(r, MultiPoly):
            ones = [e for n in range(size + 1) for row in (gamma_closed_row(n, 1), h_closed_row(n, 1), f_closed_row(n, 1)) for e in row]
            width = max(_r_width(_ORD, size), _width(max(ones)))
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
    route's triple at r = 2^W is the recurrences' packed there."""
    walks = all(_walk_matches(_EXP, which, 10) for which in ("gamma", "h", "f"))
    width = _r_width(_EXP, 10)
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

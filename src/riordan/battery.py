"""The group and props checks of the verify battery, and its full registry.

:mod:`riordan.verify` holds the oeis checks and runs the suites; this
module registers the ten group laws and the twelve props identities and
builds ``CHECKS``, which ``verify`` resolves from here on first lookup.  It
loads, with :mod:`riordan.cold`, only for ``verify group``, ``props`` and
``all`` and for the tests.

The functions that perfbench's tracer wraps (``triangle_from_series``,
``family_array``, ``named_triple``, ``check_triangle``) are called through
their modules.  This module can be first imported while the tracer is
installed, and a name bound then would keep the tracer's wrapper after it
is removed.
"""

import random
from fractions import Fraction
from functools import cache, partial
from math import factorial
from operator import mul

from . import arrays, cold, families, oeis, walk
from .algebra import MultiPoly, R, Y, _norm, _width
from .cold import (
    RiordanArray,
    binomial_array,
    dense_family_triple,
    egf_to_ogf,
    face_array,
    gamma_closed_row,
    h_closed_row,
    identity_array,
    integer_coeffs,
    narayana_array,
    narayana_closed,
    pascal_matrix,
)
from .families import FamilySpec, Kind, family_fractions, family_triple
from .jfraction import IndexPoly, JFraction
from .oeis import FIXTURES, aerated
from .series import TruncatedSeries
from .verify import FIXTURE_CHECKS, FIXTURE_SOURCES, Check, _aerated_double_factorials, _triangle_fixture

ROUNDS = 50  # random instances per group law
ORDER = 10  # truncation order of the random series and arrays

_ORD = FamilySpec(Kind.ORDINARY, R)
_EXP = FamilySpec(Kind.EXPONENTIAL, R)

CHECKS: list[Check] = []


def _check(suite: str, name: str):
    """Register the decorated function as the next check of ``suite``."""

    def register(fn):
        CHECKS.append(Check(suite, name, fn))
        return fn

    return register


# -- randomized algebra ------------------------------------------------------


def _random_series(rng: random.Random, order: int, *, constant=None, linear=None):
    coeffs = [rng.randint(-4, 4) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    if linear is not None and order >= 1:
        coeffs[1] = linear
    return TruncatedSeries(coeffs)


def _random_array(rng: random.Random, kind: Kind, order: int) -> RiordanArray:
    g = _random_series(rng, order, constant=1)
    f = _random_series(rng, order, constant=0, linear=rng.choice([1, -1]))
    return RiordanArray(g, f, kind)


def _random_index_poly(rng: random.Random, allow_y: bool = True) -> IndexPoly:
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        c = MultiPoly.const(rng.randint(-3, 3))
        if allow_y and rng.random() < 0.5:
            c = c + rng.randint(0, 2) * Y
        coeffs.append(c)
    return IndexPoly.from_coeffs(coeffs)


def _law(name: str, rounds: int = ROUNDS):
    """Register a group check: the decorated ``trial(rng)`` must hold on
    ``rounds`` successive random draws.  The check's ``fn`` is a partial
    whose first argument is the trial, which the tests draw on directly."""

    def register(trial):
        CHECKS.append(Check("group", name, partial(_rounds, trial, rounds)))
        return trial

    return register


def _rounds(trial, rounds: int, rng: random.Random) -> bool:
    return all(trial(rng) for _ in range(rounds))


# The two product laws and the inverse law compare matrices by their rows at
# y = 2^W: row n packed is sum_k M[n,k] 2^(W k), from RiordanArray._rows_at,
# which computes it on ints with no slot to overflow.  Balanced base-2^W
# digits are unique, so two rows of entries below 2^(W-1) in absolute value
# are equal exactly when their packed ints are, and each law takes W from a
# bound on every entry of both its sides (_bound).


def _bound(array: RiordanArray) -> int:
    """A bound on every |a[n,k]| of the array's matrix to ORDER, from the
    norms of g and f: a[n,k] = p(n,k) [x^(n-k)] g (f/x)^k, and that
    coefficient is at most |g|(1) |f/x|(1)^k <= |g|(1) |f/x|(1)^ORDER, as
    |f/x|(1) >= |f_1| >= 1, counting coefficients up to x^ORDER only.  The
    prefactor p(n,k) is 1, or n!/k! <= ORDER! for an exponential array."""
    g, over_x = array.g.coeffs[: ORDER + 1], array.f.coeffs[1 : ORDER + 1]
    scale = factorial(ORDER) if array.kind is Kind.EXPONENTIAL else 1
    return scale * sum(map(abs, g)) * sum(map(abs, over_x)) ** ORDER


def _product_width(a: RiordanArray, b: RiordanArray, ab: RiordanArray) -> int:
    """W of :func:`_matrix_product_law`, as its docstring proves it."""
    return _width(max((ORDER + 1) * _bound(a) * _bound(b), _bound(ab)))


def _matrix_product_law(kind: Kind, rng: random.Random) -> bool:
    """M(a b) = M(a) M(b) to ORDER, row by row at y = 2^W.  Row n of the
    product is sum_j A[n,j] R_j, with A read from a.matrix(ORDER), the
    oracle's column chain, and R_j row j of M(b) packed.  The width: an
    entry of M(a) M(b) sums ORDER + 1 products of entries of M(a) and M(b),
    so it is at most (ORDER + 1) _bound(a) _bound(b), and an entry of
    M(a b) is at most _bound(a b); W is ``_width`` of the larger."""
    a = _random_array(rng, kind, ORDER)
    b = _random_array(rng, kind, ORDER)
    ab = a * b
    y = 1 << _product_width(a, b, ab)
    rows_b = b._rows_at(ORDER, y)
    return ab._rows_at(ORDER, y) == [sum(map(mul, row, rows_b)) for row in a.matrix(ORDER).rows]


for _kind in (Kind.ORDINARY, Kind.EXPONENTIAL):
    _law(f"product equals matrix product ({_kind.value})")(partial(_matrix_product_law, _kind))


@_law("product associativity")
def _product_associativity(rng: random.Random) -> bool:
    a, b, c = (_random_array(rng, Kind.ORDINARY, ORDER) for _ in range(3))
    lhs, rhs = (a * b) * c, a * (b * c)
    return lhs.g == rhs.g and lhs.f == rhs.f


@_law("inverse yields the identity array")
def _inverse_is_identity(rng: random.Random) -> bool:
    """a a^-1 is the identity array, as g and f and as a matrix, whose rows
    are compared at y = 2^W, W ``_width`` of the larger of the two arrays'
    bounds (_bound)."""
    ident = identity_array(Kind.ORDINARY, ORDER)
    a = _random_array(rng, Kind.ORDINARY, ORDER)
    prod = a * a.inverse()
    if not (prod.g == ident.g and prod.f == ident.f):
        return False
    y = 1 << _width(max(_bound(prod), _bound(ident)))
    return prod._rows_at(ORDER, y) == ident._rows_at(ORDER, y)


@_law("series inverse identity")
def _series_inverse(rng: random.Random) -> bool:
    s = _random_series(rng, ORDER, constant=rng.choice([1, -1]))
    return s * s.inverse() == TruncatedSeries.one(ORDER)


@_law("series reversion identity (both directions)")
def _series_reversion(rng: random.Random) -> bool:
    x = TruncatedSeries.x(ORDER)
    f = _random_series(rng, ORDER, constant=0, linear=rng.choice([1, -1]))
    g = f.revert()
    return f.compose(g) == x and g.compose(f) == x


@_law("series exp is a homomorphism", ROUNDS // 2)
def _exp_homomorphism(rng: random.Random) -> bool:
    a = _random_series(rng, 8, constant=0)
    b = _random_series(rng, 8, constant=0)
    return (a + b).exp() == a.exp() * b.exp()


@_law("composition associativity", ROUNDS // 2)
def _composition_associativity(rng: random.Random) -> bool:
    g = _random_series(rng, 8)
    f = _random_series(rng, 8, constant=0)
    h = _random_series(rng, 8, constant=0)
    return g.compose(f).compose(h) == g.compose(f.compose(h))


# The two continued-fraction laws compare their expansions at y = 2^W, on
# the walk's packed values (walk.packed), with no series of polynomials.
# Substituting 2^W is a ring map, and it is injective on polynomials whose
# coefficients are below 2^(W-1) in absolute value (their balanced digits),
# so each law is exact where W is _width of a bound on every coefficient of
# both sides of its identity.  The fractions' norm walks (walk._bound)
# prove that bound before anything is packed.


def _shift_width(frac: JFraction) -> int:
    """W of :func:`_binomial_shift` on frac, as its docstring proves it."""
    return _width(walk._bound(frac, 8) * 3**8)


@_law("binomial shift matches the sequence transform", 20)
def _binomial_shift(rng: random.Random) -> bool:
    """The expansion of frac shifted by k is the binomial transform by k of
    frac's, to x^8, for k in 1, 2, y and y + 1: both walked packed at
    y = 2^W, the transform a difference table on ints.  The width: frac's
    norm walk bounds every |a_n|(1) by B, so |b_n|(1) <= B (1 + |k|(1))^n
    <= B 3^8 for the transform b by k, as |k|(1) <= 2.  The shifted
    fraction's norm walk is at most the transform of frac's by |k|(1), as
    |alpha + k|(1) <= |alpha|(1) + |k|(1), so its coefficients are at most
    B 3^8 as well, and W is ``_width(B 3^8)``."""
    frac = JFraction(_random_index_poly(rng), _random_index_poly(rng))
    width = _shift_width(frac)
    expansion = walk.packed(frac, 8, width)
    return all(
        walk.packed(frac.binomial_shift(k), 8, width) == cold._difference_table(expansion, cold._pack_var(k, width))
        for k in (1, 2, Y, Y + 1)
    )


def _one_level_down(p: IndexPoly) -> IndexPoly:
    """p(i+1): the level coefficients of a fraction with its outermost level removed."""
    step = IndexPoly.from_coeffs([1, 1])
    return sum((c * step**k for k, c in enumerate(p.coeffs)), IndexPoly(()))


def _equation_width(frac: JFraction, down: JFraction) -> int:
    """W of :func:`_defining_equation` on frac and the fraction one level
    down, as its docstring proves it."""
    alpha0, beta1 = (_norm(p) for p in (frac.alpha(0), frac.beta(1)))
    return _width(13 * walk._bound(frac, 12) * (1 + alpha0 + beta1 * walk._bound(down, 12)))


@_law("expansion satisfies the continued-fraction equation", 20)
def _defining_equation(rng: random.Random) -> bool:
    """S (1 - alpha(0) x - beta(1) x^2 S') = 1 to x^12, S' the fraction one
    level down: over series of ints, S and S' walked packed at y = 2^W.
    The width: coefficient n of S u, u = 1 - alpha(0) x - beta(1) x^2 S',
    sums n + 1 <= 13 products, each of a coefficient of S, of norm at most
    B by S's norm walk, and one of u, of norm at most 1 + |alpha(0)|(1) +
    |beta(1)|(1) B', B' the bound of S' by its norm walk; the right side is
    1.  So W is ``_width(13 B (1 + |alpha(0)|(1) + |beta(1)|(1) B'))``."""
    alpha, beta = _random_index_poly(rng), _random_index_poly(rng)
    frac, down = JFraction(alpha, beta), JFraction(_one_level_down(alpha), _one_level_down(beta))
    width = _equation_width(frac, down)
    s, below = (TruncatedSeries(walk.packed(f, 12, width)) for f in (frac, down))
    x = TruncatedSeries.x(12)
    return s * (1 - x * cold._pack_var(alpha(0), width) - x * x * cold._pack_var(beta(1), width) * below) == 1


# -- family identities --------------------------------------------------------


_family = cache(family_triple)  # gamma/h/f rows shared by the checks that use them
_fractions = cache(family_fractions)


@_check("props", "simplex face matrix factors through the binomial array")
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


@_check("props", "hypercube face matrix factors through the binomial array")
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


@cache  # the face GF and the GF chain share a walk, as the exponential checks do
def _walk_matches(spec: FamilySpec, which: str, order: int) -> bool:
    """The walk of the family's ``which`` fraction gives its triangle, f in
    reversed form, the orientation of the OEIS face triangles."""
    frac, triangle = getattr(_fractions(spec), which), getattr(_family(spec, order), which)
    if which == "f":
        frac, triangle = frac.reversed(), triangle.reversed()
    return arrays.triangle_from_series(frac.expand(order)) == triangle


@_check("props", "ordinary family face GF (plain and reversed forms)")
def _ordinary_face_gf() -> bool:
    plain = face_array(cold.family_array(_ORD, 12)).bgf(12) == _fractions(_ORD).f.expand(12)
    return plain and _walk_matches(_ORD, "f", 12)


@_check("props", "ordinary family closed forms match the constructions")
def _ordinary_closed_forms() -> bool:
    """The row recurrences' triple equals the Riordan route's and, row by
    row, the closed forms.  At r = R both sides meet at r = 2^W, on ints:
    the closed forms run there, and the rows' entries are packed there.  A
    coefficient of a closed form is at most 2 8^n (h's C(k,j)
    C(n-j, n-k-j) <= 4^n, f's sums of C(i,k) <= 2^(n+1) of them, gamma's
    C(n-k, n-2k) <= 2^n), and one of an entry at most its row's norm, so W
    is ``_width`` of the larger."""
    cases = [(R, 12)] + [(rv, 8) for rv in range(6)]
    for r, size in cases:
        spec = FamilySpec(Kind.ORDINARY, r)
        fam = _family(spec, size)
        if fam != dense_family_triple(spec, size):
            return False
        gamma, h, f = (m.rows for m in fam)
        if isinstance(r, MultiPoly):
            width = _width(max(2 * 8**size, *(cold._norm_all(row) for m in fam for row in m.rows)))
            r = 1 << width
            gamma, h, f = ([[cold._pack_var(e, width, "r") for e in row] for row in m] for m in (gamma, h, f))
        for n in range(size + 1):
            closed_h = h_closed_row(n, r)  # f_closed_row(n, r) is _face_row(closed_h)
            if list(h[n]) != closed_h or list(f[n]) != cold._face_row(closed_h) or list(gamma[n]) != gamma_closed_row(n, r):
                return False
    return True


@_check("props", "ordinary family GF chain reproduces gamma/h/f rows")
def _ordinary_gf_chain() -> bool:
    return all(_walk_matches(_ORD, which, 12) for which in ("gamma", "h", "f"))


@_check("props", "exponential family reversed face rows match the fraction")
def _exponential_weighted_fraction() -> bool:
    return all(_walk_matches(FamilySpec(Kind.EXPONENTIAL, r), "f", 10) for r in (R, 0, 1, 2, 3))


@_check("props", "exponential family fraction triple (gamma, h, face)")
def _exponential_fraction_triple() -> bool:
    walks = all(_walk_matches(_EXP, which, 10) for which in ("gamma", "h", "f"))
    return walks and _family(_EXP, 10) == dense_family_triple(_EXP, 10)


@_check("props", "aerated double factorial expansion")
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
    _check("props", f"{_name} fraction triple matches its fixtures")(
        partial(_polytope_fixtures, _name)
    )


@_check("props", "index transfer maps associahedron onto permutahedron")
def _transfer_map() -> bool:
    assoc, perm = families.named_triple("associahedron"), families.named_triple("permutahedron")
    return all(a.transfer() == p for a, p in zip(assoc, perm))


@_check("props", "weighted factorial-pair array gives Narayana numbers")
def _narayana() -> bool:
    nar = narayana_array(10).matrix(10)
    closed = all(
        nar.entry(n, k) == narayana_closed(n, k) for n in range(11) for k in range(n + 1)
    )
    return closed and oeis.check_triangle(nar, FIXTURES["A001263"]).ok


CHECKS += FIXTURE_CHECKS

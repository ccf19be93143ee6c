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

from . import arrays, cold, families, oeis
from .algebra import MultiPoly, R, Y
from .cold import (
    RiordanArray,
    binomial_array,
    binomial_transform,
    dense_family_triple,
    egf_to_ogf,
    f_closed_row,
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


def _matrix_product_law(kind: Kind, rng: random.Random) -> bool:
    a = _random_array(rng, kind, ORDER)
    b = _random_array(rng, kind, ORDER)
    return (a * b).matrix(ORDER) == a.matrix(ORDER) * b.matrix(ORDER)


for _kind in (Kind.ORDINARY, Kind.EXPONENTIAL):
    _law(f"product equals matrix product ({_kind.value})")(partial(_matrix_product_law, _kind))


@_law("product associativity")
def _product_associativity(rng: random.Random) -> bool:
    a, b, c = (_random_array(rng, Kind.ORDINARY, ORDER) for _ in range(3))
    lhs, rhs = (a * b) * c, a * (b * c)
    return lhs.g == rhs.g and lhs.f == rhs.f


@_law("inverse yields the identity array")
def _inverse_is_identity(rng: random.Random) -> bool:
    ident = identity_array(Kind.ORDINARY, ORDER)
    a = _random_array(rng, Kind.ORDINARY, ORDER)
    prod = a * a.inverse()
    return prod.g == ident.g and prod.f == ident.f and prod.matrix(ORDER) == ident.matrix(ORDER)


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


@_law("binomial shift matches the sequence transform", 20)
def _binomial_shift(rng: random.Random) -> bool:
    frac = JFraction(_random_index_poly(rng), _random_index_poly(rng))
    expansion = frac.expand(8).coeffs
    return all(
        list(frac.binomial_shift(k).expand(8).coeffs) == binomial_transform(expansion, k)
        for k in (1, 2, Y, Y + 1)
    )


def _one_level_down(p: IndexPoly) -> IndexPoly:
    """p(i+1): the level coefficients of a fraction with its outermost level removed."""
    step = IndexPoly.from_coeffs([1, 1])
    return sum((c * step**k for k, c in enumerate(p.coeffs)), IndexPoly(()))


@_law("expansion satisfies the continued-fraction equation", 20)
def _defining_equation(rng: random.Random) -> bool:
    alpha, beta = _random_index_poly(rng), _random_index_poly(rng)
    s = JFraction(alpha, beta).expand(12)
    below = JFraction(_one_level_down(alpha), _one_level_down(beta)).expand(12)
    x = TruncatedSeries.x(12)
    return s * (1 - x * alpha(0) - x * x * beta(1) * below) == 1


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
    cases = [(R, 12)] + [(rv, 8) for rv in range(6)]
    for r, size in cases:
        spec = FamilySpec(Kind.ORDINARY, r)
        fam = _family(spec, size)
        if fam != dense_family_triple(spec, size) or not all(
            list(fam.h.rows[n]) == h_closed_row(n, r)
            and list(fam.f.rows[n]) == f_closed_row(n, r)
            and list(fam.gamma.rows[n]) == gamma_closed_row(n, r)
            for n in range(size + 1)
        ):
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

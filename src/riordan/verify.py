"""Self-verification battery: group laws, identities, and OEIS cross-checks.

Every criterion is defined once, as a :class:`Check` in the registry
``CHECKS``; ``riordan verify`` and the pytest acceptance suite both run it
from there.  Checks fall into three suites, all exact and all offline:

* ``group``  -- randomized algebraic laws (Riordan group vs matrix algebra,
  series inversion/reversion/composition, continued-fraction transforms);
  each check draws from its own RNG, seeded from the run's seed and the
  check's name, so runs are reproducible and any check can run on its own;
* ``props``  -- the named identities of the triangle families (face GFs,
  closed forms, fraction triples, the polytope transfer map), with the
  Riordan-product route as a further oracle of the row recurrences;
* ``oeis``   -- every embedded fixture regenerated from its construction.

The suite functions filter the registry and return one :class:`CheckResult`
per check; the CLI renders one line per check and fails the run when any
check fails.
"""

from __future__ import annotations

from functools import cache, partial
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import DEFAULT_SEED, SUITES
from .algebra import MultiPoly, R, Y
from .arrays import Kind, triangle_from_series
from .cold import (
    RiordanArray,
    binomial_array,
    binomial_transform,
    dense_family_triple,
    egf_to_ogf,
    f_closed,
    face_array,
    family_array,
    gamma_closed,
    gamma_from_h,  # noqa: F401 -- perfbench's tracer test checks verify.gamma_from_h
    h_closed,
    identity_array,
    integer_coeffs,
    narayana_array,
    narayana_closed,
    pascal_matrix,
)
from .families import FamilySpec, family_fractions, family_matrix, family_triple, named_triple
from .jfraction import IndexPoly, JFraction
from .oeis import FIXTURES, CheckReport, aerated, check_sequence, check_triangle
from .series import TruncatedSeries

ROUNDS = 50  # random instances per group law
ORDER = 10  # truncation order of the random series and arrays

_ORD = FamilySpec(Kind.ORDINARY, R)
_EXP = FamilySpec(Kind.EXPONENTIAL, R)


class CheckResult(NamedTuple):
    suite: str
    name: str
    ok: bool
    detail: str = ""


class Check(NamedTuple):
    """One criterion of a suite.

    ``fn`` takes a ``random.Random`` seeded from the run's seed and the
    check's name in the group suite, and nothing elsewhere.  It returns a
    bool, or an OEIS :class:`CheckReport` whose message becomes the detail.
    A check that raises fails, with the exception as its detail.
    """

    suite: str
    name: str
    fn: Callable

    def run(self, seed: int = DEFAULT_SEED) -> CheckResult:
        try:
            if self.suite == "group":
                # One stream per check and seed: checks draw independent
                # instances, and each can run on its own.
                outcome = self.fn(random.Random(f"{seed}/{self.name}"))
            else:
                outcome = self.fn()
        except Exception as exc:  # a check that raises has failed; the rest still run
            return CheckResult(self.suite, self.name, False, f"{type(exc).__name__}: {exc}")
        if isinstance(outcome, CheckReport):
            return CheckResult(self.suite, self.name, outcome.ok, outcome.message())
        return CheckResult(self.suite, self.name, bool(outcome))


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
    ``rounds`` successive random draws."""

    def register(trial):
        CHECKS.append(Check("group", name, lambda rng: all(trial(rng) for _ in range(rounds))))
        return trial

    return register


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


@cache
def _aerated_double_factorials() -> tuple[int, ...]:
    """EGF exp(x^2/2), rescaled to x^20: 1, 0, 1, 0, 3, 0, 15, ..."""
    half_square = TruncatedSeries([0, 0, Fraction(1, 2)], 20)
    return tuple(integer_coeffs(egf_to_ogf(half_square.exp())))


# Where each embedded fixture comes from: (family, matrix, rows read
# reversed), or None for A001147, the even terms of the aerated double
# factorials.  The order is that of the oeis suite.
FIXTURE_SOURCES: dict[str, tuple[str, str, bool] | None] = {
    "A135278": ("simplex", "f", False),
    "A074909": ("simplex", "f", True),
    "A038207": ("hypercube", "f", False),
    "A013609": ("hypercube", "f", True),
    "A007318": ("hypercube", "h", False),
    "A001147": None,
    "A055151": ("associahedron", "gamma", False),
    "A001263": ("associahedron", "h", False),
    "A033282": ("associahedron", "f", False),
    "A101280": ("permutahedron", "gamma", False),
    "A008292": ("permutahedron", "h", False),
    "A019538": ("permutahedron", "f", False),
}


def _triangle_fixture(anumber: str) -> CheckReport:
    """The fixture's source matrix, sized to the fixture, compared against it."""
    family, which, reversed_rows = FIXTURE_SOURCES[anumber]
    matrix = family_matrix(family, which, len(FIXTURES[anumber].row_lengths) - 1)
    return check_triangle(matrix.reversed() if reversed_rows else matrix, FIXTURES[anumber])


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


def _expansion(spec: FamilySpec, pair: JFraction, order: int) -> TruncatedSeries:
    """The series of one of the family's derived level pairs (a, b), by the
    fraction route: 1/(1 - ax - bx^2) for the ordinary flavor, the J-fraction
    with weights i*b for the exponential one."""
    a, b = pair.alpha(0), pair.beta(0)
    if spec.flavor is Kind.ORDINARY:
        return TruncatedSeries.ratio([1], [1, -a, -b], order)
    return JFraction(pair.alpha, IndexPoly.from_coeffs([0, b])).expand(order)


@_check("props", "ordinary family face GF (plain and reversed forms)")
def _ordinary_face_gf() -> bool:
    f = family_fractions(_ORD).f
    plain = face_array(family_array(_ORD, 12)).bgf(12) == _expansion(_ORD, f, 12)
    reversed_rows = triangle_from_series(_expansion(_ORD, f.reversed(), 12))
    return plain and reversed_rows == _family(_ORD, 12).f.reversed()


@_check("props", "ordinary family closed forms match the constructions")
def _ordinary_closed_forms() -> bool:
    cases = [(R, 12)] + [(rv, 8) for rv in range(6)]
    for r, size in cases:
        spec = FamilySpec(Kind.ORDINARY, r)
        fam = _family(spec, size)
        if fam != dense_family_triple(spec, size) or not all(
            fam.h.entry(n, k) == h_closed(n, k, r)
            and fam.f.entry(n, k) == f_closed(n, k, r)
            and fam.gamma.entry(n, k) == gamma_closed(n, k, r)
            for n in range(size + 1)
            for k in range(n + 1)
        ):
            return False
    return True


@_check("props", "ordinary family GF chain reproduces gamma/h/f rows")
def _ordinary_gf_chain() -> bool:
    gamma, h, f = family_fractions(_ORD)
    fam = _family(_ORD, 12)
    return (
        triangle_from_series(_expansion(_ORD, gamma, 12)) == fam.gamma
        and triangle_from_series(_expansion(_ORD, h, 12)) == fam.h
        and triangle_from_series(_expansion(_ORD, f.reversed(), 12)) == fam.f.reversed()
    )


@_check("props", "exponential family reversed face rows match the fraction")
def _exponential_weighted_fraction() -> bool:
    specs = [FamilySpec(Kind.EXPONENTIAL, r) for r in (R, 0, 1, 2, 3)]
    return all(
        triangle_from_series(_expansion(spec, family_fractions(spec).f.reversed(), 10))
        == _family(spec, 10).f.reversed()
        for spec in specs
    )


@_check("props", "exponential family fraction triple (gamma, h, face)")
def _exponential_fraction_triple() -> bool:
    gamma, h, f = family_fractions(_EXP)
    fam = _family(_EXP, 10)
    return (
        triangle_from_series(_expansion(_EXP, gamma, 10)) == fam.gamma
        and triangle_from_series(_expansion(_EXP, h, 10)) == fam.h
        and triangle_from_series(_expansion(_EXP, f.reversed(), 10)) == fam.f.reversed()
        and fam == dense_family_triple(_EXP, 10)
    )


@_check("props", "aerated double factorial expansion")
def _aerated_double_factorial_routes() -> bool:
    fraction = JFraction(IndexPoly.constant(0), IndexPoly.index()).expand(20)
    want = aerated(FIXTURES["A001147"].values, 21)
    return list(_aerated_double_factorials()) == want and integer_coeffs(fraction) == want


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
    assoc, perm = named_triple("associahedron"), named_triple("permutahedron")
    return all(a.transfer() == p for a, p in zip(assoc, perm))


@_check("props", "weighted factorial-pair array gives Narayana numbers")
def _narayana() -> bool:
    nar = narayana_array(10).matrix(10)
    closed = all(
        nar.entry(n, k) == narayana_closed(n, k) for n in range(11) for k in range(n + 1)
    )
    return closed and check_triangle(nar, FIXTURES["A001263"]).ok


# -- fixture regeneration -------------------------------------------------------


def _fixture_check_name(anumber: str) -> str:
    return f"{anumber} regenerated from its construction"


def _double_factorial_fixture(anumber: str) -> CheckReport:
    return check_sequence(_aerated_double_factorials()[::2], FIXTURES[anumber])


for _anumber, _source in FIXTURE_SOURCES.items():
    _regenerate = _triangle_fixture if _source else _double_factorial_fixture
    _check("oeis", _fixture_check_name(_anumber))(partial(_regenerate, _anumber))


# -- suites ---------------------------------------------------------------------


def _run(suite: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [check.run(seed) for check in CHECKS if check.suite == suite]


def group_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return _run("group", seed)


def props_suite() -> list[CheckResult]:
    return _run("props")


def oeis_suite(anumbers: list[str] | None = None) -> list[CheckResult]:
    """The fixture checks, optionally only those of the given A-numbers."""
    if not anumbers:
        return _run("oeis")
    names = {_fixture_check_name(a) for a in anumbers}
    return [check.run() for check in CHECKS if check.suite == "oeis" and check.name in names]


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    # The suite functions are looked up by module-level name so that a tracer
    # that rebinds them sees every run.
    if name == "group":
        return group_suite(seed)
    if name == "props":
        return props_suite()
    if name == "oeis":
        return oeis_suite()
    if name == "all":
        return group_suite(seed) + props_suite() + oeis_suite()
    raise ValueError(f"unknown suite {name!r}; pick from {SUITES + ('all',)}")

"""The group suite of the verify battery: ten randomized algebraic laws.

Each law holds on ``ROUNDS`` (or fewer) random draws: the Riordan group
against matrix algebra, series inversion, reversion, exponentiation and
composition, and two continued-fraction transforms.  Each check draws from
its own RNG, which :class:`riordan.verify.Check` seeds from the run's seed
and the check's name.  This module registers the laws, in suite order, as
``CHECKS``; :mod:`riordan.verify` loads it, with :mod:`riordan.cold`, only
for ``verify group`` and ``all``, and for the tests.  No law reads a
fixture or a row recurrence, so ``verify group`` loads no
:mod:`riordan.oeis` and no :mod:`riordan.recurrence`.

No function that perfbench's tracer wraps is bound here by name: this
module can be first imported while the tracer is installed, and a name
bound then would keep the tracer's wrapper after it is removed.
"""

import random
from functools import partial
from operator import mul

from . import cold, walk
from .algebra import MultiPoly, Y, _digits, _norm, _width
from .cold import RiordanArray, identity_array
from .families import Kind
from .jfraction import IndexPoly, JFraction
from .series import TruncatedSeries
from .verify import Check

ROUNDS = 50  # random instances per group law
ORDER = 10  # truncation order of the random series and arrays
_IDENTITY = identity_array(Kind.ORDINARY, ORDER)  # the inverse law's right side

CHECKS: list = []  # the group suite's Check records, in suite order


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


def _random_index_poly(rng: random.Random) -> IndexPoly:
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        c = MultiPoly.const(rng.randint(-3, 3))
        if rng.random() < 0.5:
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


# The two product laws compare matrices by their rows at y = 2^W: row n
# packed is sum_k M[n,k] 2^(W k), from RiordanArray._rows_at, which
# computes it on ints with no slot to overflow.  Balanced base-2^W
# digits are unique, so two rows of entries below 2^(W-1) in absolute value
# are equal exactly when their packed ints are.  W is ``_width`` of the
# method of majorants (cold._majorant) run on each side: an array's matrix
# to ORDER has every entry at most its majorant (RiordanArray._bound).


def _matrix_product_law(kind: Kind, rng: random.Random) -> bool:
    """M(a b) = M(a) M(b) to ORDER, row by row at y = 2^W.  Row n of the
    product is sum_j A[n,j] R_j, with A[n,j] the digits of a's row n and
    R_j b's row j, each packed.  The width: that sum run on norms bounds
    an entry of M(a) M(b) by sum_j |A[n,j]| |B[j,k]|, at most the majorant
    of a, which bounds the row sum of |A[n,j]|, times that of b, which
    bounds every |B[j,k]|; an entry of M(a b) is at most the majorant of
    a b.  W is ``_width`` of the larger, which holds the digits of a's
    rows too, as b's majorant is at least 1."""
    a = _random_array(rng, kind, ORDER)
    b = _random_array(rng, kind, ORDER)
    ab = a * b
    width = _width(max(a._bound(ORDER) * b._bound(ORDER), ab._bound(ORDER)))
    rows_a, rows_b = a._rows_at(ORDER, 1 << width), b._rows_at(ORDER, 1 << width)
    product = [sum(map(mul, _digits(row, width), rows_b)) for row in rows_a]
    return ab._rows_at(ORDER, 1 << width) == product


for _kind in (Kind.ORDINARY, Kind.EXPONENTIAL):
    _law(f"product equals matrix product ({_kind.value})")(partial(_matrix_product_law, _kind))


@_law("product associativity")
def _product_associativity(rng: random.Random) -> bool:
    a, b, c = (_random_array(rng, Kind.ORDINARY, ORDER) for _ in range(3))
    lhs, rhs = (a * b) * c, a * (b * c)
    return lhs.g == rhs.g and lhs.f == rhs.f


@_law("inverse yields the identity array")
def _inverse_is_identity(rng: random.Random) -> bool:
    """a a^-1 is the identity array: its g and f are the identity's.  No
    matrix is compared: an array's matrix, and its rows at any y
    (``cold._bgf_rows``), are computed from its kind, g and f alone, and
    both arrays are ordinary, so once g and f are equal the matrices are
    too, and comparing them could not fail."""
    a = _random_array(rng, Kind.ORDINARY, ORDER)
    prod = a * a.inverse()
    return prod.g == _IDENTITY.g and prod.f == _IDENTITY.f


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
# both sides of its identity.  Each side's computation, run on the
# fractions' norm walks (walk._norm_walk) before anything is packed, gives
# that bound.


@_law("binomial shift matches the sequence transform", 20)
def _binomial_shift(rng: random.Random) -> bool:
    """The expansion of frac shifted by k is the binomial transform by k of
    frac's, to x^8, for k in 1, 2, y and y + 1: both walked packed at
    y = 2^W, the transform a difference table on ints.  The width: the
    transform run on norms, the difference table by |k|(1) of frac's norm
    walk, bounds the transform.  It bounds the shifted fraction's norm walk
    too, whose weights |alpha + k|(1) are at most |alpha|(1) + |k|(1): that
    walk on ints is frac's norm walk shifted by |k|(1), which is the same
    difference table.  The table grows with |k|(1), so W is ``_width`` of
    its largest value at the largest |k|(1) of the four k, 2."""
    frac = JFraction(_random_index_poly(rng), _random_index_poly(rng))
    ks = (1, 2, Y, Y + 1)
    width = _width(max(cold._difference_table(walk._norm_walk(frac, 8), max(_norm(MultiPoly.coerce(k)) for k in ks))))
    expansion = walk.packed(frac, 8, width)
    return all(
        walk.packed(frac.binomial_shift(k), 8, width) == cold._difference_table(expansion, cold._pack_var(k, width))
        for k in ks
    )


def _one_level_down(p: IndexPoly) -> IndexPoly:
    """p(i+1): the level coefficients of a fraction with its outermost level removed."""
    step = IndexPoly.from_coeffs([1, 1])
    return sum((c * step**k for k, c in enumerate(p.coeffs)), IndexPoly(()))


@_law("expansion satisfies the continued-fraction equation", 20)
def _defining_equation(rng: random.Random) -> bool:
    """S (1 - alpha(0) x - beta(1) x^2 S') = 1 to x^12, S' the fraction one
    level down: over series of ints, S and S' walked packed at y = 2^W.
    The width: the same product run on norms at x = 1, S's norm walk
    summed times 1 + |alpha(0)|(1) + |beta(1)|(1) times the norm walk of S'
    summed to x^10, bounds every coefficient of the left side, and the
    right side is 1; W is ``_width`` of that product."""
    alpha, beta = _random_index_poly(rng), _random_index_poly(rng)
    frac, down = JFraction(alpha, beta), JFraction(_one_level_down(alpha), _one_level_down(beta))
    a0, b1 = alpha(0), beta(1)
    width = _width(sum(walk._norm_walk(frac, 12)) * (1 + _norm(a0) + _norm(b1) * sum(walk._norm_walk(down, 12)[:11])))
    s, below = (TruncatedSeries(walk.packed(f, 12, width)) for f in (frac, down))
    x = TruncatedSeries.x(12)
    return s * (1 - x * cold._pack_var(a0, width) - x * x * cold._pack_var(b1, width) * below) == 1

"""The packed integer engines against the code they replace, on integer
inputs: the four series chains of the Riordan oracle (riordan.cold: compose,
revert, the columns of RiordanArray.matrix and binomial_transform) and the
y-packed Motzkin walk (riordan.walk).  Each runs once as it runs in
production, asserted packed (the walk by its plan), and once with packing
switched off (the walk by a MultiPoly plan), where it computes on its
coefficients as before; the two must agree value for value and type for
type.  Entries of many slots of many bits reach the byte read of
``algebra._digits``.  Last, the packing rules the engines share: the slot
width (``algebra._width``) read back by ``_digits`` at byte edges and at
``MAX_WIDTH``, and the fill bitset (``algebra._fill``) against the terms
the row recurrence and the walk compute."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from canonical import typed_all
from riordan import cold, walk
from riordan.algebra import MultiPoly, R, Y, _digits, _fill, _width
from riordan.cold import RiordanArray, binomial_transform
from riordan.families import FamilySpec, Kind, family_fractions, named_triple
from riordan.jfraction import IndexPoly, JFraction, Plan
from riordan.series import TruncatedSeries


def packed_and_unpacked(build):
    """build() as production runs it, the widths its chains took (None for
    a chain left unpacked), and build() with every chain unpacked."""
    widths, real = [], cold._width
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cold, "_width", lambda bound: widths.append(real(bound)) or widths[-1])
        packed = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cold, "_width", lambda bound: None)
        return packed, widths, build()


def series(coeffs):
    return st.lists(coeffs, min_size=1, max_size=14).map(TruncatedSeries)


small = st.integers(-4, 4)
signed = small | st.integers(-(2**80), 2**80)
# A long, sparse series: orders of more than 64 with coefficients that keep
# every width within MAX_WIDTH.
LONG = TruncatedSeries([0, 1, 1, 0, 0, -1] + [0] * 60 + [3, 0, 0, -2, 1])
LONG_G = TruncatedSeries([1] + [(-1) ** k * (k % 5) for k in range(1, 71)])


@given(series(signed), series(signed).map(lambda s: TruncatedSeries((0,) + s.coeffs[1:])))
@example(TruncatedSeries([0]), TruncatedSeries([0]))  # all zero
@example(TruncatedSeries([0] * 9), TruncatedSeries([0] * 9))
@example(TruncatedSeries([7]), TruncatedSeries([0, 1]))  # order 0
@example(LONG_G, LONG)  # 71 slots
@example(TruncatedSeries([2**3000, 1, 1]), TruncatedSeries([0, 1, 1]))  # past MAX_WIDTH: unpacked
@example(TruncatedSeries([0, 128]), TruncatedSeries([0, 1]))  # a coefficient as large as the bound, of 8 bits
def test_compose_packs_and_matches_the_horner_loop(s, inner):
    packed, widths, plain = packed_and_unpacked(lambda: s.compose(inner))
    assert len(widths) == 1 and (widths[0] is None) == (max(map(abs, s.coeffs)) >= 2**3000)
    assert typed_all(packed) == typed_all(plain)


@given(st.builds(lambda u, rest: TruncatedSeries((0, u, *rest)), st.sampled_from([1, -1]), st.lists(small, max_size=12)))
@example(TruncatedSeries([0, 1]))
@example(TruncatedSeries([0, -1, 0, 0]))  # h = -1, all other coefficients zero
@example(TruncatedSeries([0, 1, 1] + [0] * 68))  # powers of 70 slots
def test_revert_packs_and_matches_the_power_loop(s):
    packed, widths, plain = packed_and_unpacked(s.revert)
    assert len(widths) == 1 and widths[0]
    assert typed_all(packed) == typed_all(plain)


@given(
    st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL]),
    st.lists(signed, max_size=13),
    st.sampled_from([1, -1, 2, -3]),
    st.lists(signed, max_size=12),
    st.integers(0, 13),
)
@example(Kind.ORDINARY, [0] * 12, 1, [0] * 12, 12)  # g = 1, f = x: all zero below the diagonal
@example(Kind.ORDINARY, list(LONG_G.coeffs[1:]), 1, list(LONG.coeffs[2:]), 70)  # columns of up to 71 slots
@example(Kind.EXPONENTIAL, list(LONG_G.coeffs[1:]), -1, list(LONG.coeffs[2:]), 70)
def test_matrix_columns_pack_and_match_the_series_products(kind, g_rest, f1, f_rest, size):
    order = max(len(g_rest), len(f_rest) + 1, size)
    array = RiordanArray(TruncatedSeries([1, *g_rest], order), TruncatedSeries([0, f1, *f_rest], order), kind)
    packed, widths, plain = packed_and_unpacked(lambda: array.matrix(size))
    assert widths and all(widths)
    assert [typed_all(row) for row in packed.rows] == [typed_all(row) for row in plain.rows]


y_polys = st.dictionaries(st.tuples(st.just(0), st.integers(0, 3)), signed, max_size=3).map(MultiPoly)


@given(st.lists(y_polys | small, max_size=12), y_polys | small)
@example([], 2)  # empty
@example([0, 0, 0], 0)  # all zero
@example([(1 + Y) ** 70, Y**66 - 1, 5], Y + 1)  # 71 slots
def test_binomial_transform_packs_and_matches_the_difference_table(seq, k):
    packed, widths, plain = packed_and_unpacked(lambda: binomial_transform(seq, k))
    assert widths and all(widths)
    assert typed_all(packed) == typed_all(plain)


@pytest.mark.parametrize(
    "seq, k", [([R, 1], 2), ([1, 2], R), ([Fraction(1, 2), 1], 1)], ids=["r", "r in k", "fraction"]
)
def test_binomial_transform_packs_only_integer_polynomials_free_of_r(seq, k):
    packed, widths, plain = packed_and_unpacked(lambda: binomial_transform(seq, k))
    assert widths == [] and typed_all(packed) == typed_all(plain)


# -- the walk -------------------------------------------------------------------------

I = IndexPoly.index()
y_weights = st.dictionaries(st.tuples(st.just(0), st.integers(0, 2)), st.integers(-5, 5), max_size=3).map(MultiPoly)
index_polys = st.lists(y_weights, max_size=3).map(IndexPoly.from_coeffs)  # i-degree <= 2, zero included


def walk_packed_and_unpacked(frac, order):
    """frac.expand(order) as production runs it, the walk's plan for it
    (the layout that JFraction.expand takes by default), and the MultiPoly
    walk's expansion."""
    plan = Plan("walk", *walk._layout(frac, order))
    return frac.expand(order), plan, frac.expand(order, plan._replace(width=None))


def forced_packed(frac, order, plan):
    """The walk in slots for the plan's bound, however few of them the
    powers of y fill."""
    return frac.expand(order, plan._replace(width=_width(plan.bound)))


@settings(deadline=None)
@given(index_polys, index_polys, st.integers(0, 40))
@example(IndexPoly.constant(0), I, 21)  # the aerated double factorials, zero at odd orders
@example(IndexPoly(()), IndexPoly(()), 5)  # all zero
@example(IndexPoly.constant(128), IndexPoly(()), 1)  # a coefficient as large as the bound, of 8 bits
@example(IndexPoly.constant(2**20 * Y**2 - Y), I * I * (Y**2 + 3) - 7, 40)  # entries of more than 64 slots
@example(IndexPoly.constant(32768 * Y**32), IndexPoly.constant(1), 30)  # y^32 takes slot 32
@example(IndexPoly.constant(Y**6 - Y**3), I * Y**9, 24)  # powers of y^3: two slots in three empty
def test_walk_on_packed_ints_matches_the_multipoly_walk(alpha, beta, order):
    # Packed however few of its slots the powers of y fill (a walk of y^n
    # alone fills one in n + 1): which walk production takes is tested below.
    frac = JFraction(alpha, beta)
    _, plan, plain = walk_packed_and_unpacked(frac, order)
    assert typed_all(forced_packed(frac, order, plan)) == typed_all(plain)


NAMED = [*named_triple("associahedron"), *named_triple("permutahedron")]


@pytest.mark.parametrize("frac", NAMED, ids=[f"{p} {w}" for p in ("assoc", "perm") for w in ("gamma", "h", "f")])
def test_the_polytope_walks_run_packed_at_large_n(frac):
    packed, plan, plain = walk_packed_and_unpacked(frac, 60)
    assert plan.layout == "y-packed" and typed_all(packed) == typed_all(plain)


@pytest.mark.parametrize(
    "frac",
    [
        family_fractions(FamilySpec(Kind.EXPONENTIAL, R)).f,  # weights in r
        JFraction(IndexPoly.constant(Fraction(1, 2)), I),  # a non-integer coefficient
        JFraction(IndexPoly.constant(2**300), I),  # slots past MAX_WIDTH
    ],
    ids=["r", "fraction", "wide"],
)
def test_the_walk_packs_only_integral_weights_free_of_r_in_narrow_slots(frac):
    packed, plan, plain = walk_packed_and_unpacked(frac, 12)
    assert plan.layout == "MultiPoly" and typed_all(packed) == typed_all(plain)


@pytest.mark.parametrize(
    "alpha, beta, order, packs",
    [
        (IndexPoly.constant(Y**32), IndexPoly.constant(Y), 60, False),  # one slot in 64 filled
        (IndexPoly.constant(Y**16), I * Y, 60, False),  # one in 32
        (IndexPoly.constant(Y**8), I * Y, 60, True),  # one in 16
        (IndexPoly.constant(1 + Y**32), IndexPoly.constant(Y), 60, True),  # sparse weights whose sums fill the slots
        (IndexPoly.constant(Y**16 + Y**17), IndexPoly.constant(Y), 40, True),
        (IndexPoly.constant(Y), IndexPoly(()), 16, False),  # y^n alone: one slot in n + 1
        # Powers of y^g alone, y^j at slot j: every g-th slot filled at most.
        ((I + 1) * Y**2, I * (I + 1) * Y**2, 60, True),  # one in 2
        ((I + 1) * (Y**3 + 1), I * Y**3, 60, True),  # one in 3
        ((I + 1) * Y**4, I * Y**8, 60, False),  # under one in 8
        ((I + 1) * Y**16, I * Y**16, 60, False),  # under one in 16
    ],
)
def test_the_walk_packs_only_powers_of_y_that_fill_a_sixteenth_of_their_slots(alpha, beta, order, packs):
    frac = JFraction(alpha, beta)
    packed, plan, plain = walk_packed_and_unpacked(frac, order)
    assert plan.layout == ("y-packed" if packs else "MultiPoly")
    assert typed_all(packed) == typed_all(plain) == typed_all(forced_packed(frac, order, plan))


# -- the packing rules the engines share (riordan.algebra) ---------------------------

@pytest.mark.parametrize("k", [0, 6, 7, 8, 15, 16, 63, 64, 1023, 2039, 2040, 2046, 2047])
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_digits_read_back_the_bound_at_its_width(k, d):
    bound = 2**k + d
    width = _width(bound)
    assert (width is None) == (bound >= 2**2047)  # 2048 bits hold a sign bit and 2047 more
    if width:
        # The fewest whole bytes that hold the bound and a sign bit.
        assert width % 8 == 0 and bound < 2 ** (width - 1) and (width == 8 or bound >= 2 ** (width - 9))
        digits = [bound, -bound, 0, -bound] * 17 + [bound]  # 69 slots: the byte read from 448 bits
        for n in (1, 4, len(digits)):
            value = sum(c << width * i for i, c in enumerate(digits[:n]))
            assert (_digits(value, width) + [0] * n)[:n] == digits[:n]
        # The most slots the digit loop reads at this width, and one more,
        # the fewest the byte read does (slots^2 * width > 2^21).
        edge = isqrt((1 << 21) // width)
        for n in (edge, edge + 1):
            cells = ([bound, -bound, 0, -bound] * n)[: n - 1] + [bound]
            value = sum(c << width * i for i, c in enumerate(cells))
            assert (_digits(value, width) + [0] * n)[:n] == cells


def fill_set(fill):
    """The pairs (i, j) of the bits of _fill's bitsets: x^i in the value's z^j."""
    return {(i, j) for j, bits in enumerate(fill) for i in range(bits.bit_length()) if bits >> i & 1}


rz_weights = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(-3, 3), max_size=4).map(MultiPoly)


SHAPES = {  # a fraction of each shape of row recurrence, from its weights a and b
    "level one": lambda a, b: JFraction((-I + 1) * a, (-I + 2) * b),
    "hermite": lambda a, b: JFraction(IndexPoly.constant(a), I * b),
    "level-independent": lambda a, b: JFraction(IndexPoly.constant(a), IndexPoly.constant(b)),
}


@given(rz_weights, rz_weights, st.sampled_from(list(SHAPES)), st.integers(0, 12))
@example(1 + R * Y, R**3 * Y, "level one", 12)  # positive weights: the fill is the support
@example(1 + R * Y, R**3 * Y, "level-independent", 12)
@example(MultiPoly(), Y + 2, "hermite", 7)  # a = 0: odd rows are zero
def test_the_fill_holds_every_term_of_the_last_row(a, b, shape, order):
    # The row recurrence packs r: bit i + j*stride stands for r^i y^j.
    frac = SHAPES[shape](a, b)
    last = frac.rows(order)[-1]
    support = {(i, j) for j, c in enumerate(last) for (i, _), _ in MultiPoly.coerce(c).items()}
    filled = fill_set(_fill([[m for m, _ in w.items()] for w in (a, b)], order))
    assert support <= filled
    if all(c > 0 for w in (a, b) for _, c in w.items()):  # nothing cancels
        assert support == filled


@given(index_polys, index_polys, st.integers(0, 30))
@example(IndexPoly.constant(1 + Y**3), IndexPoly.constant(Y**5), 20)  # positive weights: the fill is the support
@example(IndexPoly.constant(Y**32), IndexPoly.constant(Y), 30)
def test_the_fill_holds_every_power_of_y_of_the_walk(alpha, beta, order):
    # The walk packs y, in one int: bit j stands for y^j.  A path of order
    # steps back to height 0 climbs to order // 2 at most.
    levels = (range(order // 2 + 1), range(1, order // 2 + 1))
    steps = [{(j, 0) for k in ks for (_, j), _ in p(k).items()} for p, ks in zip((alpha, beta), levels)]
    coefficient = MultiPoly.coerce(JFraction(alpha, beta).expand(order)[order])
    support = {(j, 0) for (_, j), _ in coefficient.items()}
    filled = fill_set(_fill(steps, order))
    assert support <= filled
    if all(not p.degree() and all(c > 0 for _, c in p(0).items()) for p in (alpha, beta)):  # free of i, nothing cancels
        assert support == filled

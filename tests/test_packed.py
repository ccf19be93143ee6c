"""The packed integer engines against the code they replace: the three
series chains of the Riordan oracle (riordan.cold: compose, revert and
the columns of RiordanArray.matrix) on integer inputs, and compose and
the columns also on rational ones, cleared of their denominators, each run
once packed wherever its slots fit MAX_WIDTH, past the measured cutoffs up
to which production packs, and once with packing switched off, where it
computes on its coefficients; the two must agree value for value and type
for type.  The y-packed Motzkin walk
(riordan.walk) reads its rows from the digits of its packed values; they
must be the oracle's, the rows of JFraction.expand, which walks on
MultiPoly alone and runs no packed code.
Entries of many slots of many bits reach the byte read of
``algebra._digits``.  The two continued-fraction laws of ``verify
group``, which compare packed walk values, and its three matrix laws,
which compare matrix rows packed by ``RiordanArray._rows_at``, fail on a
wrong slot and prove a width that holds both sides of their identities,
as do the three props checks that take the Riordan route at r = 2^W and
the props checks that compare the family fractions' packed walks.
Every integral walk free of r packs, however few of its slots its powers
of y fill.  Last, the packing rules: the slot width the engines share
(``algebra._width``) read back by ``_digits`` at byte edges and at
``MAX_WIDTH``, and the row recurrence's fill bitset (``recurrence._fill``)
against the terms of its last row."""

import random
from fractions import Fraction
from math import factorial, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from canonical import typed_all, typed_outcome, typed_rows
from riordan import cold, laws, props, walk
from riordan.algebra import MultiPoly, R, Y, _digits, _width
from riordan.cold import (
    RiordanArray,
    binomial_transform,
    dense_family_triple,
    f_closed_row,
    face_array,
    family_array,
    gamma_closed_row,
    h_closed_row,
)
from riordan.families import FamilySpec, Kind, family_fractions, family_triple, named_triple
from riordan.jfraction import IndexPoly, JFraction, Plan
from riordan.recurrence import _fill
from riordan.series import TruncatedSeries
from riordan.verify import CHECKS, DEFAULT_SEED


def packed_and_unpacked(build):
    """build() with every chain packed wherever its slots fit MAX_WIDTH,
    past the cutoffs that production packs below (cold._chain_width), so
    that the chain meets the series products at every width it could
    take; the widths its chains took (None for a chain left unpacked); and
    build() with every chain unpacked."""
    widths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cold, "_chain_width", lambda bound, most: widths.append(_width(bound)) or widths[-1])
        packed = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cold, "_chain_width", lambda bound, most: None)
        return packed, widths, build()


def chain_widths(build):
    """The widths that the chains of build(), as production runs it, take
    (None for series products)."""
    widths, real = [], cold._chain_width
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cold, "_chain_width", lambda bound, most: widths.append(real(bound, most)) or widths[-1])
        build()
    return widths


def test_a_chain_packs_only_up_to_its_measured_cutoff():
    # The group laws' arrays (coefficients in [-4, 4], order 10) take the
    # chains; the ordinary family at r = 2^40, whose columns would take
    # 528-bit slots, takes series products, as does a compose or revert
    # whose slots pass 256 bits.
    small = RiordanArray(TruncatedSeries([1, 4, -4, 3] + [2] * 7), TruncatedSeries([0, 1, -4, 4] + [-3] * 7))
    assert all(chain_widths(lambda: small.matrix(10)))
    assert chain_widths(lambda: family_array(FamilySpec(Kind.ORDINARY, 2**40), 12).matrix(12)) == [None]
    for most, bits in ((cold.MATRIX_CHAIN_BITS, 128), (cold.SERIES_CHAIN_BITS, 256)):
        assert most == bits
        assert cold._chain_width(2 ** (bits - 2), most) == bits and cold._chain_width(2 ** (bits - 1), most) is None
    wide = TruncatedSeries([0, 1] + [2**40] * 11)
    assert chain_widths(lambda: wide.compose(wide)) == chain_widths(wide.revert) == [None]
    assert chain_widths(lambda: small.g.compose(small.f)) != [None] != chain_widths(small.f.revert)


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


rationals = small | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@given(
    st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL]),
    st.lists(rationals, max_size=8),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
    st.lists(rationals, max_size=7),
    st.integers(0, 8),
)
@example(Kind.EXPONENTIAL, [1, Fraction(1, 2), Fraction(1, 6)], 1, [Fraction(1, 2)], 3)  # the family's g and f at r = 1, order 3
@example(Kind.ORDINARY, [Fraction(1, 2)], 1, [], 3)  # a non-integral entry
def test_matrix_columns_clear_rational_coefficients_pack_and_match_the_series_products(kind, g_rest, f1, f_rest, size):
    # Fraction coefficients: the columns run packed on ints, cleared of their
    # denominators, and each entry is divided back; unpacked, the cleared
    # columns are series products.  Entries and NonIntegralEntry texts
    # agree, with their types.
    order = max(len(g_rest), len(f_rest) + 1, size)
    array = RiordanArray(TruncatedSeries([1, *g_rest], order), TruncatedSeries([0, f1, *f_rest], order), kind)
    packed, widths, plain = packed_and_unpacked(lambda: typed_outcome(lambda: array.matrix(size)))
    assert widths and all(widths)
    assert packed == plain


@given(st.lists(rationals, min_size=1, max_size=9), st.lists(rationals, max_size=8))
@example([Fraction(1, 2), 1, Fraction(1, 3)], [Fraction(1, 2), 1])
def test_compose_clears_rational_denominators_packs_and_matches_the_horner_loop(outer, inner):
    # Fraction coefficients: the Horner steps run packed on ints over
    # d_s d_i^n, and agree with themselves unpacked, value for value and
    # type for type, and with Horner's rule of full series products.
    outer, inner = TruncatedSeries(outer), TruncatedSeries([0, *inner])
    packed, widths, plain = packed_and_unpacked(lambda: outer.compose(inner))
    assert widths and all(widths)
    assert typed_all(packed) == typed_all(plain)
    n = min(outer.order, inner.order)
    horner = TruncatedSeries((outer[n],), n)
    for k in range(n - 1, -1, -1):
        horner = horner * inner.truncate(n) + outer[k]
    assert list(packed) == list(horner)


# -- the walk -------------------------------------------------------------------------

I = IndexPoly.index()
y_weights = st.dictionaries(st.tuples(st.just(0), st.integers(0, 2)), st.integers(-5, 5), max_size=3).map(MultiPoly)
index_polys = st.lists(y_weights, max_size=3).map(IndexPoly.from_coeffs)  # i-degree <= 2, zero included


def walk_plan(frac, order):
    """The plan JFraction.plan gives a fraction that takes the walk: the
    walk's layout, slot width and bound."""
    return Plan("walk", *walk._layout(frac, order))


def at_slot_width(series, width):
    """Each coefficient of a series in x over MultiPoly, free of r, as the
    int it takes at y = 2^width."""
    return [sum(c << width * j for (_, j), c in MultiPoly.coerce(s).items()) for s in series]


@settings(deadline=None)
@given(index_polys, index_polys, st.integers(0, 40))
@example(IndexPoly.constant(0), I, 21)  # the aerated double factorials, zero at odd orders
@example(IndexPoly(()), IndexPoly(()), 5)  # all zero
@example(IndexPoly.constant(128), IndexPoly(()), 1)  # a coefficient as large as the bound, of 8 bits
@example(IndexPoly.constant(2**20 * Y**2 - Y), I * I * (Y**2 + 3) - 7, 40)  # entries of more than 64 slots
@example(IndexPoly.constant(32768 * Y**32), IndexPoly.constant(1), 30)  # y^32 takes slot 32
@example(IndexPoly.constant(Y**6 - Y**3), I * Y**9, 24)  # powers of y^3: two slots in three empty
def test_walk_on_packed_ints_matches_the_multipoly_walk(alpha, beta, order):
    # The packed walk's values are the oracle's series at y = 2^width: at
    # the plan's width, and, since y -> 2^width is a ring map, at widths
    # too narrow for the digits to be read back, where slots overlap.
    frac = JFraction(alpha, beta)
    oracle = frac.expand(order)
    for width in (walk_plan(frac, order).width, 1, 3):
        assert walk.packed(frac, order, width) == at_slot_width(oracle, width)


@settings(deadline=None)
@given(index_polys, index_polys, st.integers(0, 40))
@example(IndexPoly.constant(0), I, 21)  # the aerated double factorials, zero at odd orders
@example(IndexPoly.constant(0), I, 9)  # 0; i: a zero row at every odd order
@example(IndexPoly(()), IndexPoly(()), 5)  # all zero but row 0
@example(IndexPoly.constant(128), IndexPoly(()), 1)  # a coefficient as large as the bound, of 8 bits
@example(IndexPoly.constant(2**20 * Y**2 - Y), I * I * (Y**2 + 3) - 7, 40)  # negative digits, more than 64 slots
@example(IndexPoly.constant(32768 * Y**32), IndexPoly.constant(1), 30)  # y^32 takes slot 32
@example(IndexPoly.constant(Y**6 - Y**3), I * Y**9, 24)  # powers of y^3: two slots in three empty
def test_a_y_packed_walk_reads_its_rows_from_its_digits(alpha, beta, order):
    # Production's plan packs every drawn fraction, free of r and in narrow
    # slots, and the digits of the walk's values, y^j at slot j, up to the
    # last nonzero one, are the rows of the oracle.
    frac = JFraction(alpha, beta)
    plan = walk_plan(frac, order)
    assert plan.layout == "y-packed"
    assert [typed_all(row) for row in walk.rows(frac, order, plan)] == typed_rows(frac.expand(order))


NAMED = [*named_triple("associahedron"), *named_triple("permutahedron")]


@pytest.mark.parametrize("frac", NAMED, ids=[f"{p} {w}" for p in ("assoc", "perm") for w in ("gamma", "h", "f")])
def test_the_polytope_walks_run_packed_at_large_n(frac):
    # The permutahedron's three fractions take the walk in production, perm
    # f being the decks' perm-face; the associahedron's take the row
    # recurrence, and walk packed here.
    plan = walk_plan(frac, 60)
    assert plan.layout == "y-packed"
    assert [typed_all(row) for row in walk.rows(frac, 60, plan)] == typed_rows(frac.expand(60))


@pytest.mark.parametrize(
    "frac",
    [
        family_fractions(FamilySpec(Kind.EXPONENTIAL, R)).f,  # weights in r
        JFraction(IndexPoly.constant(2**300), I),  # slots past MAX_WIDTH
    ],
    ids=["r", "wide"],
)
def test_the_walk_packs_only_integral_weights_free_of_r_in_narrow_slots(frac):
    assert walk_plan(frac, 12).layout == "MultiPoly"


@pytest.mark.parametrize(
    "alpha, beta, order",
    [
        (IndexPoly.constant(Y**32), IndexPoly.constant(Y), 60),  # one slot in 64 filled
        (IndexPoly.constant(Y**16), I * Y, 60),  # one in 32
        (IndexPoly.constant(Y**8), I * Y, 60),  # one in 16
        (IndexPoly.constant(1 + Y**32), IndexPoly.constant(Y), 60),  # sparse weights whose sums fill the slots
        (IndexPoly.constant(Y**16 + Y**17), IndexPoly.constant(Y), 40),
        (IndexPoly.constant(Y), IndexPoly(()), 16),  # y^n alone: one slot in n + 1
        # Powers of y^g alone, y^j at slot j: every g-th slot filled at most.
        ((I + 1) * Y**2, I * (I + 1) * Y**2, 60),  # one in 2
        ((I + 1) * (Y**3 + 1), I * Y**3, 60),  # one in 3
        ((I + 1) * Y**4, I * Y**8, 60),  # under one in 8
        ((I + 1) * Y**16, I * Y**16, 60),  # under one in 16
        ((I + 1) * Y**31, I * Y, 100),  # one in 32, at the largest N
    ],
)
def test_the_walk_packs_powers_of_y_however_few_slots_they_fill(alpha, beta, order):
    frac = JFraction(alpha, beta)
    plan = walk_plan(frac, order)
    assert plan.layout == "y-packed"
    assert [typed_all(row) for row in walk.rows(frac, order, plan)] == typed_rows(frac.expand(order))


def test_the_oracle_runs_no_packed_code(monkeypatch):
    # JFraction.expand walks on MultiPoly alone, so it gives the rows of a
    # y-packed walk (perm-face) and of r-packed rows (the associahedron's
    # f) with the packed walk out of reach.
    fracs = [named_triple("permutahedron").f, named_triple("associahedron").f]
    want = [[typed_all(row) for row in frac.rows(12)] for frac in fracs]

    def unreachable(*args):
        raise AssertionError("the oracle walked on packed ints")

    monkeypatch.setattr(walk, "packed", unreachable)
    assert [typed_rows(frac.expand(12)) for frac in fracs] == want


# -- the two continued-fraction laws of verify group, on packed values ----------------

LAWS = {"continued-fraction equation": laws._defining_equation, "binomial shift": laws._binomial_shift}


@pytest.mark.parametrize("trial", LAWS.values(), ids=list(LAWS))
def test_a_plus_one_in_one_slot_of_one_packed_value_fails_each_law_on_every_round(trial):
    # The seeded rounds that verify group runs, each with y added to value 5
    # of the first walk the round makes (the fraction's own expansion): the
    # law compares that value's coefficient of y, so each round must fail.
    real, name = walk.packed, next(c.name for c in CHECKS if c.fn.args[0] is trial)
    rng, failed = random.Random(f"{DEFAULT_SEED}/{name}"), []
    for _ in range(20):
        calls = []

        def wrong(frac, order, width):
            values = real(frac, order, width)
            if not calls:
                values[5] += 1 << width
            calls.append(frac)
            return values

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walk, "packed", wrong)
            failed.append(not trial(rng))
    assert failed == [True] * 20


MATRIX_LAWS = ("product equals matrix product (ordinary)", "product equals matrix product (exponential)", "inverse yields the identity array")


@pytest.mark.parametrize("call", [0, 1], ids=["first rows", "second rows"])
@pytest.mark.parametrize("name", MATRIX_LAWS)
def test_a_plus_one_in_one_slot_of_one_packed_row_fails_each_matrix_law_on_every_round(name, call):
    # The seeded rounds that verify group runs, each once as it is, when it
    # must hold, and once with y^3 added to row 5 of the first or the second
    # packed rows it computes (b's or a b's for a product law, a a^-1's or
    # the identity's for the inverse law), when it must fail.
    trial = next(c.fn.args[0] for c in CHECKS if c.name == name)
    rng, real, held, failed = random.Random(f"{DEFAULT_SEED}/{name}"), RiordanArray._rows_at, [], []
    for _ in range(laws.ROUNDS):
        state = rng.getstate()
        held.append(trial(rng))
        rng.setstate(state)
        calls = []

        def wrong(array, size_n, y):
            rows = real(array, size_n, y)
            if len(calls) == call:
                rows[5] += y**3
            calls.append(array)
            return rows

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RiordanArray, "_rows_at", wrong)
            failed.append(not trial(rng) and len(calls) == 2)
    assert held == failed == [True] * laws.ROUNDS


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL]))
def test_each_matrix_law_proves_a_width_that_holds_every_entry_of_both_sides(rng, kind):
    # The laws' draws, with every matrix as the LowerTriMatrix route
    # computes it: _bound holds every entry of its array's matrix, the
    # product laws' width every entry of M(a), M(b), M(a) M(b) and M(a b),
    # and the packed rows at y = 2^W are those matrices' rows.
    n = laws.ORDER
    a, b = (laws._random_array(rng, kind, n) for _ in "ab")
    ab = a * b
    arrays = [a, b, ab] + ([a * a.inverse()] if kind is Kind.ORDINARY else [])
    for array in arrays:
        assert max(abs(e) for row in array.matrix(n).rows for e in row) <= laws._bound(array)
    width = laws._product_width(a, b, ab)
    ma, mb, mab = a.matrix(n), b.matrix(n), ab.matrix(n)
    assert width >= widest(e for m in (ma, mb, ma * mb, mab) for row in m.rows for e in row)
    for array, m in ((b, mb), (ab, mab)):
        assert array._rows_at(n, 1 << width) == [sum(e << width * k for k, e in enumerate(row)) for row in m.rows]


def test_the_bound_holds_an_entry_that_is_all_prefactor():
    # f = x, so a[n,0] = n! g_n: the norms of g and f/x are 41 and 1, and
    # only the prefactor bound ORDER! holds a[10,0] = 4 10!.
    array = RiordanArray(TruncatedSeries([1] + [4] * 10), TruncatedSeries.x(10), Kind.EXPONENTIAL)
    assert array.matrix(10).entry(10, 0) == 4 * factorial(10) <= laws._bound(array)


@given(st.randoms(use_true_random=False), st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL]), st.integers(0, 10), st.integers(-5, 5) | st.just(2**40))
def test_the_rows_at_an_integer_are_the_matrix_rows_there(rng, kind, size, y):
    # _rows_at expands the bivariate generating function on ints; the rows of
    # the column chain's matrix, evaluated at y, are its oracle, for any y.
    array = laws._random_array(rng, kind, 10)
    assert array._rows_at(size, y) == [sum(e * y**k for k, e in enumerate(row)) for row in array.matrix(size).rows]


def widest(values):
    """The largest ``_width`` of a coefficient of the values."""
    return max(_width(abs(c)) for v in values for _, c in MultiPoly.coerce(v).items())


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_each_law_proves_a_width_that_holds_both_sides_of_its_identity(rng):
    # The laws' draws, with both sides of each identity as the series route
    # computes them, on MultiPoly: every coefficient must fit the proven
    # width, so that 2^W is injective on it.
    alpha, beta = laws._random_index_poly(rng), laws._random_index_poly(rng)
    frac = JFraction(alpha, beta)
    down = JFraction(laws._one_level_down(alpha), laws._one_level_down(beta))
    x = TruncatedSeries.x(12)
    sides = [*(frac.expand(12) * (1 - x * alpha(0) - x * x * beta(1) * down.expand(12))), 1]
    assert laws._equation_width(frac, down) >= widest(sides)
    expansion = list(frac.expand(8))
    shifted = [side for k in (1, 2, Y, Y + 1) for side in (*frac.binomial_shift(k).expand(8), *binomial_transform(expansion, k))]
    assert laws._shift_width(frac) >= widest(shifted)


# -- the three props checks that take the Riordan route at r = 2^W ------------------

PROPS_CHECKS = (
    "ordinary family face GF (plain and reversed forms)",
    "ordinary family closed forms match the constructions",
    "exponential family fraction triple (gamma, h, face)",
)


@pytest.mark.parametrize("name", PROPS_CHECKS)
def test_a_plus_one_in_one_slot_of_one_packed_row_fails_each_props_check(name):
    # The check holds as it is, and fails with r added to entry (5, 1) of
    # the first matrix whose rows it packs (f for the face GF, gamma for the
    # two triples), whose coefficient of r it compares.
    check, real, calls = next(c for c in CHECKS if c.name == name), props._packed_rows, []

    def wrong(matrix, width):
        rows = [list(row) for row in real(matrix, width)]
        if not calls:
            rows[5][1] += 1 << width
        calls.append(matrix)
        return tuple(map(tuple, rows))

    assert check.fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(props, "_packed_rows", wrong)
        assert not check.fn() and calls


def test_each_props_check_proves_a_width_that_holds_both_sides():
    # Both sides of each check at the symbolic r, on MultiPoly: the Riordan
    # route (the triple, and the face array's bivariate GF), the row
    # recurrences and the closed forms.  _family_bound holds every
    # coefficient of the triples' rows to each n, and each check's width
    # every coefficient it compares, so that r -> 2^W is injective on them.
    ordinary, exponential = FamilySpec(Kind.ORDINARY, R), FamilySpec(Kind.EXPONENTIAL, R)
    sides = {}
    for spec, size in ((ordinary, 12), (exponential, 10)):
        triples = [m.rows for triple in (dense_family_triple(spec, size), family_triple(spec, size)) for m in triple]
        for n in range(size + 1):
            assert max(abs(c) for rows in triples for row in rows[: n + 1] for e in row for _, c in MultiPoly.coerce(e).items()) <= props._family_bound(spec, n)
        sides[spec] = [e for rows in triples for row in rows for e in row]
    gf = face_array(family_array(ordinary, 12)).bgf(12)
    assert props._family_width(ordinary, 12) >= widest([*gf, *sides[ordinary]])
    assert props._family_width(exponential, 10) >= widest(sides[exponential])
    closed = [e for n in range(13) for row in (gamma_closed_row(n), h_closed_row(n), f_closed_row(n)) for e in row]
    assert props._closed_forms_width(12) >= widest(closed + sides[ordinary])
    # The face GF's rows at r = 2^W, y = 2^V: every entry of its face
    # matrix has r-degree at most n/2, and V holds its value at r = 2^W.
    width = props._family_width(ordinary, 12)
    assert max(MultiPoly.coerce(c).degree("r") - n // 2 for n, c in enumerate(gf)) <= 0
    at_w = [e for row in props._packed_rows(family_triple(ordinary, 12).f, width) for e in row]
    assert props._face_gf_width(width, 12) >= widest(at_w)


def test_a_plus_one_in_one_y_slot_of_the_face_gf_fails_its_check():
    # The face GF's rows at y = 2^V, with y added to row 5: its face
    # matrix's entry (5, 1) at r = 2^W, which the check compares.
    check, real = next(c for c in CHECKS if c.name == PROPS_CHECKS[0]), RiordanArray._rows_at

    def wrong(array, size_n, y):
        rows = real(array, size_n, y)
        rows[5] += y
        return rows

    assert check.fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RiordanArray, "_rows_at", wrong)
        assert not check.fn()


# (spec, which, order) of every walk that a props check compares
WALKS = [(FamilySpec(Kind.ORDINARY, R), which, 12) for which in ("gamma", "h", "f")] + [
    (FamilySpec(Kind.EXPONENTIAL, r), which, 10) for r in (R, 0, 1, 2, 3) for which in ("gamma", "h", "f")
]
WALK_CHECKS = ("ordinary family GF chain reproduces gamma/h/f rows", "exponential family reversed face rows match the fraction")


@pytest.mark.parametrize("name", WALK_CHECKS)
def test_a_plus_one_in_one_slot_of_one_packed_walk_fails_each_walk_check(name):
    # The check holds as it is, and fails with y added to value 5 of the
    # first walk it makes, whose coefficient of y it compares.
    check, real, calls = next(c for c in CHECKS if c.name == name), walk.packed, []

    def wrong(frac, order, width):
        values = real(frac, order, width)
        if not calls:
            values[5] += 1 << width
        calls.append(frac)
        return values

    props._walk_matches.cache_clear()
    assert check.fn()
    props._walk_matches.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walk, "packed", wrong)
            assert not check.fn() and calls
    finally:
        props._walk_matches.cache_clear()


@pytest.mark.parametrize("spec, which, order", WALKS, ids=[f"{s.flavor.value}-{s.r}-{w}" for s, w, _ in WALKS])
def test_each_walk_check_proves_a_width_that_holds_both_sides(spec, which, order):
    # Both sides at the symbolic r, on MultiPoly: the fraction's walk
    # (JFraction.expand) and the recurrence's triangle.  W holds every
    # coefficient in r of both, and at r = 2^W, V holds every coefficient
    # in y of the walk and every entry of the rows it is compared with.
    frac, triangle = getattr(family_fractions(spec), which), getattr(family_triple(spec, order), which)
    walked = y_coefficients(frac.expand(order))
    rows = triangle.rows
    if spec.r == R:
        width = props._family_width(spec, order)
        assert width >= widest(walked + [e for row in rows for e in row])
        frac, rows = getattr(family_fractions(FamilySpec(spec.flavor, 1 << width)), which), props._packed_rows(triangle, width)
    if which == "f":
        frac, rows = frac.reversed(), [row[::-1] for row in rows]
    y_width = props._walk_width(frac, rows, order)
    assert y_width >= widest(y_coefficients(frac.expand(order)) + [e for row in rows for e in row])


def y_coefficients(series):
    """Every y-coefficient of every coefficient of a series in x."""
    return [c for s in series for c in MultiPoly.coerce(s).y_coefficients()]


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


# -- the row recurrence's fill (riordan.recurrence) -----------------------------------

def fill_set(fill):
    """The pairs (i, j) of the bits of _fill's bitsets: r^i in the row's y^j."""
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

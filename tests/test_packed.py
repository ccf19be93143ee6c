"""The packed integer engines against the code they replace: the series
chain of the Riordan oracle (riordan.cold: compose's Horner steps) on
integer inputs and on rational ones, cleared of their denominators, run
once packed wherever its slots fit MAX_WIDTH, past the measured cutoff up
to which production packs, and once with packing switched off, where it
computes on its coefficients; the two must agree value for value and type
for type.  RiordanArray.matrix, which reads the rows of every array from
its bivariate GF at y = 2^V, however wide: an int row as its digits, a
row in r or y term by term, a generalized array's as its ordinary
array's, weighted; against the series products
of its entries and columns (canonical.matrix_by_columns), on integer,
rational, symbolic, weighted and extremal arrays, each constructor's g
and f canonical.  The y-packed Motzkin
walk (riordan.walk) reads its rows from the digits of its
packed values; they must be the oracle's, the rows of JFraction.expand,
which walks on MultiPoly alone and runs no packed code.  Entries of many
slots of many bits reach the byte read of ``algebra._digits``.  The two
continued-fraction laws of ``verify group``, which compare packed walk
values, and its two product laws, which compare matrix rows packed by
``RiordanArray._rows_at``, fail on a wrong slot, and its inverse law on a
wrong coefficient; every width they pack at holds both sides of their
identities, extremal draws included, as do
the three props checks that take the Riordan route at r = 2^W and the props
checks that compare the family fractions' packed walks.  Each such width
is ``_width`` of one rule, the method of majorants (``cold._majorant``,
``walk._norm_walk``).  Every integral walk free of r packs, however few of
its slots its powers of y fill.  Last, the packing rules: the slot width
the engines share (``algebra._width``) read back by ``_digits`` at byte
edges and at ``MAX_WIDTH``, and the row recurrence's fill bitset
(``recurrence._fill``) against the terms of its last row."""

import random
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from math import factorial, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from canonical import matrix_by_columns, typed_all, typed_outcome, typed_rows
from riordan import cold, laws, props, walk
from riordan.algebra import MultiPoly, R, Y, _digits, _width, tidy
from riordan.arrays import LowerTriMatrix
from riordan.cold import (
    RiordanArray,
    WeightSequence,
    binomial_transform,
    dense_family_triple,
    f_closed_row,
    face_array,
    family_array,
    gamma_closed_row,
    h_closed_row,
    narayana_array,
)
from riordan.families import FamilySpec, Kind, family_fractions, family_triple, named_triple
from riordan.jfraction import IndexPoly, JFraction, Plan
from riordan.recurrence import _fill
from riordan.series import TruncatedSeries
from riordan.verify import CHECKS, DEFAULT_SEED


def packed_and_unpacked(build):
    """build() with compose's chain packed wherever its slots fit
    MAX_WIDTH, past the cutoff that production packs below
    (cold._chain_width), so that the chain meets the series products at
    every width it could take; the widths its chains took (None for a
    chain left unpacked); and build() with every chain unpacked."""
    widths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cold, "_chain_width", lambda bound: widths.append(_width(bound)) or widths[-1])
        packed = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cold, "_chain_width", lambda bound: None)
        return packed, widths, build()


def chain_widths(build):
    """The widths that compose's chains in build(), as production runs
    it, take (None for series products)."""
    widths, real = [], cold._chain_width
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cold, "_chain_width", lambda bound: widths.append(real(bound)) or widths[-1])
        build()
    return widths


def test_a_chain_packs_only_up_to_its_measured_cutoff():
    # The group laws' series (coefficients in [-4, 4], order 10) take the
    # chain, and a compose whose slots pass 256 bits takes series products.
    assert cold.SERIES_CHAIN_BITS == 256
    assert cold._chain_width(2**254) == 256 and cold._chain_width(2**255) is None
    wide = TruncatedSeries([0, 1] + [2**40] * 11)
    assert chain_widths(lambda: wide.compose(wide)) == [None]
    g, f = TruncatedSeries([1, 4, -4, 3] + [2] * 7), TruncatedSeries([0, 1, -4, 4] + [-3] * 7)
    assert chain_widths(lambda: g.compose(f)) != [None]


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


rationals = small | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@given(
    st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL]),
    st.lists(signed | rationals, max_size=13),
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)]),
    st.lists(signed | rationals, max_size=12),
    st.integers(0, 13),
)
@example(Kind.ORDINARY, [0] * 12, 1, [0] * 12, 12)  # g = 1, f = x: all zero below the diagonal
@example(Kind.ORDINARY, list(LONG_G.coeffs[1:]), 1, list(LONG.coeffs[2:]), 70)  # rows of up to 71 slots
@example(Kind.EXPONENTIAL, list(LONG_G.coeffs[1:]), -1, list(LONG.coeffs[2:]), 70)
@example(Kind.ORDINARY, [2**200] * 12, 1, [2**200] * 12, 12)  # a majorant past MAX_WIDTH: read at its width all the same
@example(Kind.EXPONENTIAL, [1, Fraction(1, 2), Fraction(1, 6)], 1, [Fraction(1, 2)], 3)  # the family's g and f at r = 1, order 3
@example(Kind.ORDINARY, [Fraction(1, 2)], 1, [], 3)  # a non-integral entry
def test_matrix_rows_pack_and_match_the_column_products(kind, g_rest, f1, f_rest, size):
    # Integer and rational coefficients, the rational ones cleared of their
    # denominators: the rows are the digits of the bivariate GF at y = 2^V,
    # however wide, and each entry is divided back.  Entries and
    # NonIntegralEntry texts agree, with their types, with the full column
    # products g f^k.
    order = max(len(g_rest), len(f_rest) + 1, size)
    array = RiordanArray(TruncatedSeries([1, *g_rest], order), TruncatedSeries([0, f1, *f_rest], order), kind)
    assert typed_outcome(lambda: array.matrix(size)) == typed_outcome(lambda: matrix_by_columns(array, size))


# Coefficients in r and y: polynomials of degree at most 2 in each, with
# int or Fraction coefficients, or scalars.
polys = small | rationals | st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), signed | rationals, max_size=3).map(MultiPoly)
weights = st.lists(st.sampled_from([1, -1, 2, 3, -6, Fraction(1, 2), Fraction(-2, 3)]), min_size=7, max_size=7)


def at_the_top(value, sign):
    """value with the coefficient of each of its terms at the top of its
    range, 2^80, of the sign given.  With sign 1 every coefficient of g and
    f is nonnegative, so the norm array is the array itself and each row
    of the matrix at y = 1 is that row of the majorant run."""
    return MultiPoly({m: sign * 2**80 for m, _ in MultiPoly.coerce(value).items()})


@given(
    st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL, Kind.GENERALIZED]),
    weights,
    st.lists(polys, max_size=6),
    polys.filter(bool),
    st.lists(polys, max_size=5),
    st.integers(0, 6),
    st.sampled_from([None, 1, -1]),
)
@example(Kind.GENERALIZED, [1, 2, 3, 4, 5, 6, 7], [R, Y], Fraction(1, 2), [R * Y], 3, None)
@example(Kind.EXPONENTIAL, [1] * 7, [R] * 6, 1, [Y] * 5, 6, 1)  # extremal, of one sign
@example(Kind.ORDINARY, [1] * 7, [R] * 6, 1, [Y] * 5, 6, -1)
@example(Kind.ORDINARY, [1] * 7, [R * Fraction(1, 2)], 1, [], 2, None)  # a non-integral entry in r
def test_matrix_rows_of_polynomial_and_weighted_arrays_match_the_column_products(kind, c, g_rest, f1, f_rest, size, sign):
    # Coefficients in r and y, cleared of their denominators: each row of the
    # bivariate GF at y = 2^V is a MultiPoly, read term by term, and a
    # generalized array's rows, those of its ordinary array, are weighted
    # by c_n/c_k.  With sign, every coefficient is extremal.  Entries and
    # NonIntegralEntry texts agree, with their types, with the full column
    # products g f^k times their prefactors.
    order = max(len(g_rest), len(f_rest) + 1, size)
    if sign:
        g_rest, f1, f_rest = [at_the_top(v, sign) for v in g_rest], at_the_top(f1, sign), [at_the_top(v, sign) for v in f_rest]
    drawn = WeightSequence("drawn", lambda n: (1, *c)[n]) if kind is Kind.GENERALIZED else None
    array = RiordanArray(TruncatedSeries([1, *g_rest], order), TruncatedSeries([0, f1, *f_rest], order), kind, drawn)
    assert typed_outcome(lambda: array.matrix(size)) == typed_outcome(lambda: matrix_by_columns(array, size))


def test_a_plus_one_in_one_digit_of_a_polynomial_row_fails_the_matrix():
    # Row 4 of the exponential family's array in r is a MultiPoly, whose
    # term in r packs the coefficients of r of the row's entries: with 1
    # more in its digit 2, the coefficient of r in entry (4, 2), the matrix
    # differs from the column products.
    array = family_array(FamilySpec(Kind.EXPONENTIAL, R), 6)
    want = typed_outcome(lambda: matrix_by_columns(array, 6))
    assert typed_outcome(lambda: array.matrix(6)) == want
    with altered(cold, "_read", lambda row, value, width, n: plus(row, 2, R), call=4) as calls:
        assert typed_outcome(lambda: array.matrix(6)) != want and isinstance(calls[4][0], MultiPoly)


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


# -- the group laws of verify group, against a wrong slot or coefficient -------------


def plus(seq, i, d):
    """seq, as the type it is, with d added to entry i."""
    return type(seq)((*seq[:i], seq[i] + d, *seq[i + 1 :]))


@contextmanager
def altered(target, attr, alter, call=0):
    """target.attr, with the result of its call number ``call`` (from 0)
    replaced by alter(result, *args); yields the list of its calls."""
    real, calls = getattr(target, attr), []

    def wrong(*args):
        result = real(*args)
        calls.append(args)
        return alter(result, *args) if len(calls) == call + 1 else result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(target, attr, wrong)
        yield calls


def seeded_rounds(name, *alteration):
    """The seeded rounds of the group law that verify group runs, each run
    as it is and then, from the same draws, under ``altered(*alteration)``:
    for each, whether it held, whether it failed altered, and the number of
    calls the alteration saw."""
    trial, rounds = next(c.fn.args for c in CHECKS if c.name == name)
    rng, out = random.Random(f"{DEFAULT_SEED}/{name}"), []
    for _ in range(rounds):
        state = rng.getstate()
        held = trial(rng)
        rng.setstate(state)
        with altered(*alteration) as calls:
            out.append((held, not trial(rng), len(calls)))
    return out


LAWS = ("expansion satisfies the continued-fraction equation", "binomial shift matches the sequence transform")


@pytest.mark.parametrize("name", LAWS, ids=["continued-fraction equation", "binomial shift"])
def test_a_plus_one_in_one_slot_of_one_packed_value_fails_each_law_on_every_round(name):
    # Each round holds, and fails with y added to value 5 of the first walk
    # it makes (the fraction's own expansion): the law compares that
    # value's coefficient of y.
    rounds = seeded_rounds(name, walk, "packed", lambda values, frac, order, width: plus(values, 5, 1 << width))
    assert [(held, failed) for held, failed, _ in rounds] == [(True, True)] * 20


@pytest.mark.parametrize("call", [0, 1], ids=["first rows", "second rows"])
@pytest.mark.parametrize("name", ["product equals matrix product (ordinary)", "product equals matrix product (exponential)"])
def test_a_plus_one_in_one_slot_of_one_packed_row_fails_each_matrix_law_on_every_round(name, call):
    # Each round holds, and fails with y^3 added to row 5 of the first or
    # the second packed rows it computes (a's or b's, of the rows of a, b
    # and a b that it packs).
    rounds = seeded_rounds(name, RiordanArray, "_rows_at", lambda rows, array, size_n, y: plus(rows, 5, y**3), call)
    assert rounds == [(True, True, 3)] * laws.ROUNDS


@pytest.mark.parametrize("part", ["g", "f"])
def test_a_plus_one_in_one_coefficient_of_the_product_fails_the_inverse_law_on_every_round(part):
    # Each round holds, and fails with 1 added to coefficient 5 of a a^-1's
    # g or f.
    def wrong(prod, a, b):
        return RiordanArray(*(TruncatedSeries(plus(getattr(prod, p).coeffs, 5, 1)) if p == part else getattr(prod, p) for p in "gf"))

    assert seeded_rounds("inverse yields the identity array", RiordanArray, "__mul__", wrong) == [(True, True, 1)] * laws.ROUNDS


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL]))
def test_each_matrix_law_proves_a_width_that_holds_every_entry_of_both_sides(rng, kind):
    # The laws' draws, with every matrix as the LowerTriMatrix route
    # computes it: an array's majorant to row m holds every entry of its
    # matrix to row m, and the product of the majorants of a and b every
    # entry of M(a) M(b).
    n = laws.ORDER
    a, b = (laws._random_array(rng, kind, n) for _ in "ab")
    for array in (a, b, a * b):
        rows = array.matrix(n).rows
        assert all(max(map(abs, rows[m])) <= array._bound(m) for m in range(n + 1))
    assert max(abs(e) for row in (a.matrix(n) * b.matrix(n)).rows for e in row) <= a._bound(n) * b._bound(n)


def test_the_bound_holds_an_entry_that_is_all_prefactor():
    # f = x, so a[n,0] = n! g_n: the majorant's row 10 at y = 1 sums the
    # prefactors 10!/k! times |g_(10-k)|, and holds a[10,0] = 4 10!.
    array = RiordanArray(TruncatedSeries([1] + [4] * 10), TruncatedSeries.x(10), Kind.EXPONENTIAL)
    assert array.matrix(10).entry(10, 0) == 4 * factorial(10) <= array._bound(10)


@given(st.randoms(use_true_random=False), st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL]), st.integers(0, 10), st.integers(-5, 5) | st.just(2**40))
def test_the_rows_at_an_integer_are_the_matrix_rows_there(rng, kind, size, y):
    # _rows_at expands the bivariate generating function on ints; the rows
    # of the full column products (canonical.matrix_by_columns), evaluated
    # at y, are its oracle, for any y.
    array = laws._random_array(rng, kind, 10)
    assert array._rows_at(size, y) == [sum(e * y**k for k, e in enumerate(row)) for row in matrix_by_columns(array, size).rows]


MATRICES = {
    "ordinary family, r = 5": family_array(FamilySpec(Kind.ORDINARY, 5), 10),
    "exponential family, r = 3": family_array(FamilySpec(Kind.EXPONENTIAL, 3), 10),  # r/2 cleared
    "exponential family, r = 2^40 + 1": family_array(FamilySpec(Kind.EXPONENTIAL, 2**40 + 1), 10),
    "exponential family, symbolic r": family_array(FamilySpec(Kind.EXPONENTIAL, R), 6),  # rows read term by term
    "narayana": narayana_array(10),  # generalized: weighted ordinary rows
    "non-integral": RiordanArray(TruncatedSeries([1, Fraction(1, 3)], 6), TruncatedSeries.x(6), Kind.EXPONENTIAL),
    "identity": cold.identity_array(order=10),
    **{f"binomial, {kind.value}": cold.binomial_array(kind, 10) for kind in (Kind.ORDINARY, Kind.EXPONENTIAL)},
    **{f"{kind.value} family, {name}": family_array(FamilySpec(kind, r), 6 if r is R else 10) for kind in (Kind.ORDINARY, Kind.EXPONENTIAL)
       for name, r in (("symbolic r", R), ("r = 0", 0), ("r = 1", 1), ("r = 2", 2), ("r = 3", 3), ("r = 2^40", 2**40))},
}


@pytest.mark.parametrize("array", MATRICES.values(), ids=list(MATRICES))
def test_the_matrix_is_its_entries(array):
    # Every kind, on ints, cleared of denominators or in r: the matrix and
    # its entries one by one (RiordanArray.entry, each read alone) against
    # the full column products (canonical.matrix_by_columns), or the text
    # of the first NonIntegralEntry in row order.  And g and f as built,
    # canonical: no integral Fraction, no constant MultiPoly.
    assert typed_all([*array.g, *array.f]) == typed_all(map(tidy, [*array.g, *array.f]))
    n = array.order
    want = typed_outcome(lambda: matrix_by_columns(array, n))
    assert typed_outcome(lambda: array.matrix(n)) == want
    assert typed_outcome(lambda: LowerTriMatrix([array.entry(m, k) for k in range(m + 1)] for m in range(n + 1))) == want


def widest(values):
    """The largest ``_width`` of a coefficient of the values."""
    return max(_width(abs(c)) for v in values for _, c in MultiPoly.coerce(v).items())


def norm(value) -> int:
    """The sum of the absolute values of the coefficients of value."""
    return sum(abs(c) for _, c in MultiPoly.coerce(value).items())


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_each_law_proves_a_width_that_holds_both_sides_of_its_identity(rng):
    # The laws' draws, with both sides of each identity as the series route
    # computes them, on MultiPoly: the norm walk holds the norm of every
    # coefficient of its fraction's walk, and the difference table of
    # frac's norm walk by |k|(1) that of every coefficient of the transform
    # by k and of the walk of frac shifted by k.
    alpha, beta = laws._random_index_poly(rng), laws._random_index_poly(rng)
    frac = JFraction(alpha, beta)
    for f in (frac, JFraction(laws._one_level_down(alpha), laws._one_level_down(beta))):
        assert all(map(int.__le__, map(norm, f.expand(12)), walk._norm_walk(f, 12)))
    expansion, norms = list(frac.expand(8)), walk._norm_walk(frac, 8)
    for k in (1, 2, Y, Y + 1):
        for side in (binomial_transform(expansion, k), frac.binomial_shift(k).expand(8)):
            assert all(map(int.__le__, map(norm, side), cold._difference_table(norms, norm(k))))


def extremal(top: bool) -> random.Random:
    """An rng that draws every value at the top (or the bottom) of its
    range: the laws' arrays with every coefficient 4 (or -4) and f_1 of the
    same sign, their index polynomials of three terms 3 + 2y (or of one,
    -3), so that the majorants are attained."""
    rng = random.Random()
    rng.randint, rng.choice, rng.random = (lambda a, b: b if top else a), (lambda seq: seq[0] if top else seq[-1]), (lambda: 0.0)
    return rng


def packing_widths(check):
    """The widths at which check() packs, which must hold: the r-widths W
    that props._packed_rows is given, and the y-widths V of each y = 2^V
    that RiordanArray._rows_at is given and of each walk.packed."""
    r_widths, y_widths = [], []
    rows_at, packed, packed_rows = RiordanArray._rows_at, walk.packed, props._packed_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RiordanArray, "_rows_at", lambda array, size_n, y: y_widths.append(y.bit_length() - 1) or rows_at(array, size_n, y))
        mp.setattr(walk, "packed", lambda frac, order, width: y_widths.append(width) or packed(frac, order, width))
        mp.setattr(props, "_packed_rows", lambda matrix, width: r_widths.append(width) or packed_rows(matrix, width))
        assert check()
    return r_widths, y_widths


def product_sides(kind, rng):
    a, b = (laws._random_array(rng, kind, laws.ORDER) for _ in "ab")
    return [e for m in (a.matrix(laws.ORDER) * b.matrix(laws.ORDER), (a * b).matrix(laws.ORDER)) for row in m.rows for e in row]


def shift_sides(rng):
    frac = JFraction(laws._random_index_poly(rng), laws._random_index_poly(rng))
    expansion = list(frac.expand(8))
    return [side for k in (1, 2, Y, Y + 1) for side in (*frac.binomial_shift(k).expand(8), *binomial_transform(expansion, k))]


def equation_sides(rng):
    alpha, beta = laws._random_index_poly(rng), laws._random_index_poly(rng)
    down = JFraction(laws._one_level_down(alpha), laws._one_level_down(beta))
    x = TruncatedSeries.x(12)
    return [*(JFraction(alpha, beta).expand(12) * (1 - x * alpha(0) - x * x * beta(1) * down.expand(12))), 1]


# Every coefficient that each law that packs compares, on either side, for
# the draws it makes from an rng: on matrices and on MultiPoly.
LAW_SIDES = {
    "product equals matrix product (ordinary)": partial(product_sides, Kind.ORDINARY),
    "product equals matrix product (exponential)": partial(product_sides, Kind.EXPONENTIAL),
    "binomial shift matches the sequence transform": shift_sides,
    "expansion satisfies the continued-fraction equation": equation_sides,
}


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False) | st.booleans().map(extremal))
@example(extremal(True))
@example(extremal(False))
def test_every_law_packs_at_a_width_that_holds_both_sides(rng):
    # One round of each law, and its draws once more from the same state:
    # every width the round packs at holds every coefficient of both sides
    # of its identity, at the extremal draws too, where the majorants are
    # the entries themselves.
    for name, sides in LAW_SIDES.items():
        trial, state = next(c.fn.args[0] for c in CHECKS if c.name == name), rng.getstate()
        _, widths = packing_widths(lambda: trial(rng))
        rng.setstate(state)
        assert widths and min(widths) >= widest(sides(rng)), name


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
    check = next(c for c in CHECKS if c.name == name)
    assert check.fn()
    with altered(props, "_packed_rows", lambda rows, matrix, width: plus(rows, 5, plus(rows[5], 1, 1 << width))) as calls:
        assert not check.fn() and calls


def test_each_props_check_proves_a_width_that_holds_both_sides():
    # Both sides of each check at the symbolic r, on MultiPoly: the Riordan
    # route (the triple, and the face array's bivariate GF), the row
    # recurrences and the closed forms.  The family array's majorant at
    # y = 2 holds every coefficient of the triples' rows to each n, and
    # each width that a check packs at every coefficient it compares there,
    # so that r -> 2^W and y -> 2^V are injective on them.
    ordinary, exponential = FamilySpec(Kind.ORDINARY, R), FamilySpec(Kind.EXPONENTIAL, R)
    sides = {}
    for spec, size in ((ordinary, 12), (exponential, 10)):
        triples = [m.rows for triple in (dense_family_triple(spec, size), family_triple(spec, size)) for m in triple]
        array = family_array(spec, size)
        for n in range(size + 1):
            assert max(abs(c) for rows in triples for row in rows[: n + 1] for e in row for _, c in MultiPoly.coerce(e).items()) <= array._bound(n, 2)
        sides[spec] = [e for rows in triples for row in rows for e in row]
    face_gf, closed_forms, exponential_triple = (next(c for c in CHECKS if c.name == name).fn for name in PROPS_CHECKS)
    gf = face_array(family_array(ordinary, 12)).bgf(12)
    r_widths, y_widths = packing_widths(face_gf)
    assert min(r_widths) >= widest([*gf, *sides[ordinary]])
    # The face GF's rows at r = 2^W, y = 2^V: V holds every entry of the
    # face matrix at r = 2^W.
    at_w = [e for row in props._packed_rows(family_triple(ordinary, 12).f, r_widths[0]) for e in row]
    assert min(y_widths) >= widest(at_w)
    closed = [e for n in range(13) for row in (gamma_closed_row(n), h_closed_row(n), f_closed_row(n)) for e in row]
    assert min(packing_widths(closed_forms)[0]) >= widest(closed + sides[ordinary])
    assert min(packing_widths(exponential_triple)[0]) >= widest(sides[exponential])


def test_a_plus_one_in_one_y_slot_of_the_face_gf_fails_its_check():
    # The face GF's rows at y = 2^V, with y added to row 5: its face
    # matrix's entry (5, 1) at r = 2^W, which the check compares.
    check = next(c for c in CHECKS if c.name == PROPS_CHECKS[0])
    assert check.fn()
    with altered(RiordanArray, "_rows_at", lambda rows, array, size_n, y: plus(rows, 5, y)) as calls:
        assert not check.fn() and calls


# (spec, which, order) of every walk that a props check compares
WALKS = [(FamilySpec(Kind.ORDINARY, R), which, 12) for which in ("gamma", "h", "f")] + [
    (FamilySpec(Kind.EXPONENTIAL, r), which, 10) for r in (R, 0, 1, 2, 3) for which in ("gamma", "h", "f")
]
WALK_CHECKS = ("ordinary family GF chain reproduces gamma/h/f rows", "exponential family reversed face rows match the fraction")


@pytest.mark.parametrize("name", WALK_CHECKS)
def test_a_plus_one_in_one_slot_of_one_packed_walk_fails_each_walk_check(name):
    # The check holds as it is, and fails with y added to value 5 of the
    # first walk it makes, whose coefficient of y it compares.
    check = next(c for c in CHECKS if c.name == name)
    props._walk_matches.cache_clear()
    assert check.fn()
    props._walk_matches.cache_clear()
    try:
        with altered(walk, "packed", lambda values, frac, order, width: plus(values, 5, 1 << width)) as calls:
            assert not check.fn() and calls
    finally:
        props._walk_matches.cache_clear()


@pytest.mark.parametrize("spec, which, order", WALKS, ids=[f"{s.flavor.value}-{s.r}-{w}" for s, w, _ in WALKS])
def test_each_walk_check_proves_a_width_that_holds_both_sides(spec, which, order):
    # Both sides at the symbolic r, on MultiPoly: the fraction's walk
    # (JFraction.expand) and the recurrence's triangle.  The W the check
    # packs r at holds every coefficient in r of both, and at r = 2^W, the
    # V it packs y at every coefficient in y of the walk and every entry of
    # the rows it is compared with.
    frac, triangle = getattr(family_fractions(spec), which), getattr(family_triple(spec, order), which)
    walked = y_coefficients(frac.expand(order))
    rows = triangle.rows
    r_widths, y_widths = packing_widths(lambda: props._walk_matches.__wrapped__(spec, which, order))
    if spec.r == R:
        width = r_widths[0]
        assert set(r_widths) == {width} and width >= widest(walked + [e for row in rows for e in row])
        frac, rows = getattr(family_fractions(FamilySpec(spec.flavor, 1 << width)), which), props._packed_rows(triangle, width)
    if which == "f":
        frac, rows = frac.reversed(), [row[::-1] for row in rows]
    assert min(y_widths) >= widest(y_coefficients(frac.expand(order)) + [e for row in rows for e in row])


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

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from canonical import bgf_by_series, matrix_by_columns, rings, typed_all, typed_outcome
from riordan.algebra import R, Y, MultiPoly, tidy
from riordan.arrays import (
    IndexBeyondTruncation,
    LowerTriMatrix,
    NonIntegralEntry,
    triangle_from_series,
)
from riordan.cold import (
    FACTORIAL_PAIR_WEIGHTS,
    FACTORIAL_WEIGHTS,
    UNIT_WEIGHTS,
    KindMismatch,
    NonUnitConstantTerm,
    RiordanArray,
    UnsupportedKind,
    WeightSequence,
    ZeroLinearTerm,
    binomial_array,
    egf_to_ogf,
    face_array,
    face_matrix,
    identity_array,
    pascal_matrix,
)
from riordan.families import Kind
from riordan.series import TruncatedSeries

S = TruncatedSeries
ORDER = 12


def simplex_face_array(order=ORDER):
    return RiordanArray(S.ratio([1], [1, -2, 1], order), S.ratio([0, 1], [1, -1], order))


def exp_array(scale, order=ORDER):
    return RiordanArray(S([0, scale], order).exp(), S.x(order), Kind.EXPONENTIAL)


def test_entry_examples():
    assert [simplex_face_array().entry(3, k) for k in range(4)] == [4, 6, 4, 1]
    assert [exp_array(2).entry(3, k) for k in range(4)] == [8, 12, 6, 1]

    g = S([Fraction(1, 1), Fraction(1, 2), Fraction(1, 12), Fraction(1, 144)], 8)
    narayana = RiordanArray(g, S.x(8), Kind.GENERALIZED, FACTORIAL_PAIR_WEIGHTS)
    assert [narayana.entry(3, k) for k in range(4)] == [1, 6, 6, 1]


def test_entry_bounds_and_integrality():
    a = simplex_face_array(4)
    assert a.entry(2, 4) == 0
    with pytest.raises(IndexBeyondTruncation):
        a.entry(5, 0)
    bad = RiordanArray(S([1, Fraction(1, 2)], 4), S.x(4), Kind.EXPONENTIAL)
    assert bad.entry(0, 0) == 1  # only the entry read is checked integral
    with pytest.raises(NonIntegralEntry):
        bad.entry(1, 0)


def test_matrix_examples():
    assert binomial_array(Kind.EXPONENTIAL).matrix(6) == pascal_matrix(6)
    all_ones = RiordanArray(S.ratio([1], [1, -1]), S.x())
    assert all_ones.matrix(6) == LowerTriMatrix([[1] * (n + 1) for n in range(7)])
    ident = identity_array()
    assert ident.matrix(5) == LowerTriMatrix(
        [[1 if k == n else 0 for k in range(n + 1)] for n in range(6)]
    )


def test_product_examples():
    fam = RiordanArray(S.ratio([1], [1, -1]), S.ratio([0, 1, R], [1, -1]))
    fr = fam * binomial_array()
    assert fr.g == S.ratio([1], [1, -2, -R])
    assert fr.f == S.ratio([0, 1, R], [1, -2, -R])

    efam = RiordanArray(S.x().exp(), S([0, 1, R * Fraction(1, 2)], 16), Kind.EXPONENTIAL)
    ef = efam * binomial_array(Kind.EXPONENTIAL)
    assert ef.g == S([0, 2, R * Fraction(1, 2)], 16).exp()
    assert ef.f == efam.f

    a = simplex_face_array()
    prod = a * identity_array(order=ORDER)
    assert prod.g == a.g and prod.f == a.f


def test_kind_rules():
    with pytest.raises(KindMismatch):
        binomial_array(Kind.ORDINARY) * binomial_array(Kind.EXPONENTIAL)
    weights = FACTORIAL_PAIR_WEIGHTS
    gen = RiordanArray(S.one(8), S.x(8), Kind.GENERALIZED, weights)
    with pytest.raises(UnsupportedKind):
        gen * gen
    with pytest.raises(UnsupportedKind):
        gen.inverse()
    with pytest.raises(UnsupportedKind):
        gen.bgf()
    with pytest.raises(ValueError):
        RiordanArray(S.one(8), S.x(8), Kind.GENERALIZED)  # no weights
    with pytest.raises(ValueError):
        WeightSequence("broken", lambda n: n)  # c_0 != 1


@pytest.mark.parametrize(
    "refused, error, text",
    [
        (lambda: S([R, 1]).inverse(), NonUnitConstantTerm, "constant term must be an invertible constant, got r"),
        (lambda: S([Fraction(0), 1]).inverse(), NonUnitConstantTerm, "constant term is zero"),
        (lambda: S([0]).revert(), ZeroLinearTerm, "no linear coefficient available"),
        (lambda: simplex_face_array(4).matrix(5), IndexBeyondTruncation, "size 5 beyond truncation order 4"),
        (lambda: simplex_face_array(4).bgf(5), IndexBeyondTruncation, "order 5 beyond truncation 4"),
        (lambda: binomial_array().bgf(-1), ValueError, "order -1 is negative"),
        (lambda: S([1, 2]).truncate(-1), ValueError, "order must be non-negative"),
        (lambda: WeightSequence("step", lambda n: 1 - n)(1), ValueError, "weight c_1 is zero"),
        (lambda: setattr(UNIT_WEIGHTS, "name", "twos"), AttributeError, "cannot assign to field 'name' of a frozen record"),
        (lambda: delattr(UNIT_WEIGHTS, "c"), AttributeError, "cannot delete field 'c' of a frozen record"),
    ],
    ids=["symbolic-inverse", "zero-fraction-inverse", "revert-order-0", "matrix-past-order", "bgf-past-order",
         "bgf-negative-order", "truncate-negative-order", "zero-weight", "frozen-set", "frozen-delete"],
)
def test_each_refused_input_raises_its_error_and_message(refused, error, text):
    with pytest.raises(error) as raised:
        refused()
    assert type(raised.value) is error and str(raised.value) == text


def test_generalized_weights_specialize_to_ordinary_and_exponential():
    g = S.ratio([1], [1, -2, 1], 8)
    f = S.ratio([0, 1], [1, -1], 8)
    assert (
        RiordanArray(g, f, Kind.GENERALIZED, UNIT_WEIGHTS).matrix(8)
        == RiordanArray(g, f).matrix(8)
    )
    eg = S([0, 2], 8).exp()
    assert (
        RiordanArray(eg, S.x(8), Kind.GENERALIZED, FACTORIAL_WEIGHTS).matrix(8)
        == RiordanArray(eg, S.x(8), Kind.EXPONENTIAL).matrix(8)
    )


def test_inverse_examples():
    binv = binomial_array(order=ORDER).inverse()
    reduced = simplex_face_array() * binv
    assert reduced.g == S.ratio([1], [1, -1], ORDER)
    assert reduced.f == S.x(ORDER)

    eb = binomial_array(Kind.EXPONENTIAL, ORDER)
    assert (exp_array(2) * eb.inverse()).g == eb.g
    assert (exp_array(2) * eb.inverse()).f == eb.f

    ident = identity_array(order=ORDER)
    inv = ident.inverse()
    assert inv.g == ident.g and inv.f == ident.f


def test_bgf_examples():
    fam = RiordanArray(S.ratio([1], [1, -1]), S.ratio([0, 1, R], [1, -1]))
    fr = fam * binomial_array()
    assert fr.bgf(10) == S.ratio([1], [1, -(Y + 2), -(R * (Y + 1))], 10)

    b = binomial_array()
    assert b.bgf(8) == S.ratio([1], [1, -1 - Y], 8)

    efam = RiordanArray(S.x().exp(), S([0, 1, R * Fraction(1, 2)], 16), Kind.EXPONENTIAL)
    ef = efam * binomial_array(Kind.EXPONENTIAL)
    assert triangle_from_series(egf_to_ogf(ef.bgf(6))) == ef.matrix(6)


def test_bgf_rows_match_matrix_rows():
    fam = RiordanArray(S.ratio([1], [1, -1]), S.ratio([0, 1, 3], [1, -1]))
    assert triangle_from_series(fam.bgf(8)) == fam.matrix(8)


@given(st.sampled_from([Kind.ORDINARY, Kind.EXPONENTIAL]), rings, st.data())
def test_bgf_matches_the_series_operations(kind, ring, data):
    """Every bgf(n), n <= order, of a drawn array equals the series
    operations' g / (1 - y f) or g exp(y f), types compared; g_0 is 1 as
    an int, a Fraction or a constant MultiPoly."""
    order = data.draw(st.integers(1, 6))
    values = st.lists(ring, min_size=order, max_size=order)
    lead, one = data.draw(ring.filter(bool)), data.draw(st.sampled_from([1, Fraction(1), MultiPoly.const(1)]))
    array = RiordanArray(S([one, *data.draw(values)]), S([0, lead, *data.draw(values)[1:]], order), kind)
    for n in range(order + 1):
        assert typed_all(array.bgf(n)) == typed_all(bgf_by_series(array, n))


def test_reversal_examples():
    m = simplex_face_array().matrix(6)
    assert m.reversed().rows[3] == (1, 4, 6, 4)
    assert m.reversed().reversed() == m
    cube = exp_array(2).matrix(6)
    assert cube.reversed().rows[3] == (1, 6, 12, 8)


def test_pascal_like_examples():
    assert pascal_matrix(6).is_pascal_like()
    assert not exp_array(2).matrix(6).is_pascal_like()  # rows 1; 2,1; 4,4,1; ...
    fam = RiordanArray(S.ratio([1], [1, -1]), S.ratio([0, 1, 3], [1, -1]))
    assert fam.matrix(6).is_pascal_like()


def test_face_matrix_examples():
    fam = RiordanArray(S.ratio([1], [1, -1]), S.ratio([0, 1, 1], [1, -1]))
    fm = face_matrix(fam.matrix(8))
    assert fm.rows[1] == (2, 1)
    assert fm.rows[2] == (5, 5, 1)
    assert fm == face_array(fam).matrix(8)  # matrix and array routes agree

    assert face_matrix(identity_array().matrix(6)) == pascal_matrix(6)

    efam = RiordanArray(S.x().exp(), S([0, 1, Fraction(1, 2)], 12), Kind.EXPONENTIAL)
    efm = face_matrix(efam.matrix(8))
    assert efm.reversed().rows[3] == (1, 9, 21, 14)


def test_entry_matches_matrix_everywhere():
    a = RiordanArray(S.ratio([1], [1, -1, 1]), S.ratio([0, 1, -2], [1, -1]))
    m = matrix_by_columns(a, 8)
    assert a.matrix(8) == m
    assert all(a.entry(n, k) == m.entry(n, k) for n in range(9) for k in range(n + 1))


@pytest.mark.parametrize(
    "array",
    [
        simplex_face_array(),
        exp_array(2),
        RiordanArray(
            S([1, Fraction(1, 2), Fraction(1, 12), Fraction(1, 144)], 8),
            S.x(8),
            Kind.GENERALIZED,
            FACTORIAL_PAIR_WEIGHTS,
        ),
        RiordanArray(S.ratio([1], [1, -R], 10), S.ratio([0, 1], [1, -1, -R * Y], 10)),
    ],
)
def test_matrix_prefix_matches_the_full_order_matrix(array):
    full = array.matrix(array.order).rows
    assert all(array.matrix(m).rows == full[: m + 1] for m in range(array.order + 1))


def test_matrix_validation():
    with pytest.raises(ValueError):
        LowerTriMatrix([[1], [1, 2, 3]])
    with pytest.raises(ValueError):
        RiordanArray(S([2, 1], 4), S.x(4))
    with pytest.raises(ValueError):
        RiordanArray(S.one(4), S([0, 0, 1], 4))


def test_triangle_from_series_rejects_deep_y():
    bad = S([MultiPoly.const(1), Y**2], 4)
    with pytest.raises(ValueError):
        triangle_from_series(bad)


def _typed_rows(m):
    return [typed_all(row) for row in m.rows]


def _tri_mul_by_loops(a, b):
    """Entry (n, k) summed one product at a time over j = k..n: the triple
    loop that the matrix product replaced, kept as its oracle."""
    rows = []
    for n in range(a.size):
        row = []
        for k in range(n + 1):
            acc = a.rows[n][k] * b.rows[k][k]
            for j in range(k + 1, n + 1):
                acc = acc + a.rows[n][j] * b.rows[j][k]
            row.append(tidy(acc))
        rows.append(row)
    return LowerTriMatrix(rows)


@given(rings, st.data())
def test_matrix_product_matches_the_triple_loop(ring, data):
    size = data.draw(st.integers(0, 6))
    a, b = (
        LowerTriMatrix([data.draw(st.lists(ring, min_size=n + 1, max_size=n + 1)) for n in range(size)])
        for _ in "ab"
    )
    assert _typed_rows(a * b) == _typed_rows(_tri_mul_by_loops(a, b))


KINDS = [(Kind.ORDINARY, None), (Kind.EXPONENTIAL, None), (Kind.GENERALIZED, FACTORIAL_PAIR_WEIGHTS)]


@given(st.sampled_from(KINDS), rings, st.data())
def test_matrix_matches_the_full_column_products_and_entry(kind_weights, ring, data):
    kind, weights = kind_weights
    order = data.draw(st.integers(1, 7))
    values = st.lists(ring, min_size=order, max_size=order)
    lead = data.draw(ring.filter(bool))
    g, f = S([1, *data.draw(values)]), S([0, lead, *data.draw(values)[1:]], order)
    array = RiordanArray(g, f, kind, weights)
    size_n = data.draw(st.integers(0, order))
    want = typed_outcome(lambda: matrix_by_columns(array, size_n))
    assert typed_outcome(lambda: array.matrix(size_n)) == want
    if not isinstance(want, str):
        entries = LowerTriMatrix([array.entry(n, k) for k in range(n + 1)] for n in range(size_n + 1))
        assert _typed_rows(entries) == want


@pytest.mark.parametrize(
    "array, text",
    [
        (RiordanArray(S([1, Fraction(1, 3)], 4), S.x(4), Kind.EXPONENTIAL), "entry is not an integer: 1/3"),
        (RiordanArray(S([1, 1], 4), S([0, 1, Fraction(1, 2)], 4)), "entry is not an integer: 3/2"),
        (RiordanArray(S([1, Fraction(1, 2) * R + 1], 4), S.x(4)), "entry has non-integer coefficients: 1/2*r + 1"),
        (RiordanArray(S([1, Fraction(1, 2) * Y], 4), S.x(4)), "entry has non-integer coefficients: 1/2*y"),
    ],
    ids=["int", "int column", "in r", "in y"],
)
def test_a_non_integral_entry_raises_the_text_of_the_full_column_products(array, text):
    # The first entry that is not integral, in row order, whether the rows
    # of the bivariate GF are ints, read as their digits, or polynomials
    # in r or in y, read term by term.
    assert typed_outcome(lambda: array.matrix(4)) == typed_outcome(lambda: matrix_by_columns(array, 4)) == text

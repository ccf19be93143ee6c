from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from riordan.algebra import R, Y
from riordan.series import (
    NonIntegralResult,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    TruncatedSeries,
    ZeroLinearTerm,
    egf_to_ogf,
    integer_coeffs,
)

S = TruncatedSeries


def series_of(coeffs, order=8):
    return S(coeffs, order)


int_series = st.lists(st.integers(-5, 5), min_size=9, max_size=9).map(S)
unit_series = st.tuples(st.sampled_from([1, -1]), st.lists(st.integers(-5, 5), min_size=8, max_size=8)).map(
    lambda t: S((t[0], *t[1]))
)
zero_const_series = st.lists(st.integers(-5, 5), min_size=8, max_size=8).map(lambda c: S((0, *c)))
revertible_series = st.tuples(
    st.sampled_from([1, -1]), st.lists(st.integers(-4, 4), min_size=7, max_size=7)
).map(lambda t: S((0, t[0], *t[1])))


def test_mul_examples():
    one_plus = series_of([1, 1])
    one_minus = series_of([1, -1])
    assert one_plus * one_minus == series_of([1, 0, -1])
    geometric = S.ratio([1], [1, -1], 4)
    assert geometric * S([1, -1], 4) == 1
    assert one_plus * one_plus == series_of([1, 2, 1])


def test_mixed_orders_truncate_to_the_shorter():
    a = S([1, 1, 1], 10)
    b = S([1, 2], 3)
    assert (a * b).order == 3
    assert (a + b).order == 3
    assert S([1, 1], 4) == S([1, 1], 16)  # equality up to common order


def test_inverse_examples():
    geometric = S([1, -1], 8).inverse()
    assert geometric == S([1] * 9)

    g = S([1, -2, -R], 8).inverse()
    assert g[2] == R + 4
    assert g[3] == 4 * R + 8

    h = S([1, -(2 * Y + 1), -(R * Y * (Y + 1))], 4).inverse()
    assert h[2] == 4 * Y**2 + 4 * Y + 1 + R * Y**2 + R * Y
    assert h[2].substitute(r=1) == 5 * Y**2 + 5 * Y + 1


def test_inverse_requires_a_unit():
    with pytest.raises(NonUnitConstantTerm):
        S([2, 1], 4).inverse()
    with pytest.raises(NonUnitConstantTerm):
        S([0, 1], 4).inverse()
    # rational and polynomial-constant leading terms are fine
    assert S([Fraction(1, 2), 1], 4).inverse()[0] == 2
    assert S([R * 0 + 1, R], 4).inverse()[1] == -R


def test_compose_examples():
    g = S.ratio([1], [1, -1], 8)
    f = S.ratio([0, 1], [1, -1], 8)
    composed = g.compose(f)
    assert composed.coeffs == (1, 1, 2, 4, 8, 16, 32, 64, 128)

    any_g = series_of([3, 1, 4, 1, 5])
    assert any_g.compose(S.x(8)) == any_g
    assert series_of([1, 1]).compose(series_of([0, 2])) == series_of([1, 2])

    with pytest.raises(NonzeroConstantTerm):
        g.compose(series_of([1, 1]))


def test_revert_examples():
    assert S.x(8).revert() == S.x(8)

    f = S.ratio([0, 1], [1, -1], 10)
    fbar = f.revert()
    assert fbar.coeffs[:5] == (0, 1, -1, 1, -1)
    assert f.compose(fbar) == S.x(10)
    assert fbar.compose(f) == S.x(10)

    catalan = S([0, 1, 1], 10).revert()
    assert catalan.coeffs[:6] == (0, 1, -1, 2, -5, 14)
    assert catalan.compose(S([0, 1, 1], 10)) == S.x(10)


def test_revert_preconditions():
    with pytest.raises(NonzeroConstantTerm):
        S([1, 1], 4).revert()
    with pytest.raises(ZeroLinearTerm):
        S([0, 0, 1], 4).revert()
    with pytest.raises(ZeroLinearTerm):
        S([0, 2, 1], 4).revert()  # 2 is not a unit over the integers


def test_exp_examples():
    assert S.zero(6).exp() == 1

    half_square = S([0, 0, Fraction(1, 2)], 10)
    assert integer_coeffs(egf_to_ogf(half_square.exp())) == [1, 0, 1, 0, 3, 0, 15, 0, 105, 0, 945]

    doubling = S([0, 2], 6).exp()
    assert integer_coeffs(egf_to_ogf(doubling)) == [1, 2, 4, 8, 16, 32, 64]

    with pytest.raises(NonzeroConstantTerm):
        series_of([1, 1]).exp()


def _exp_by_horner(s):
    """sum(s**k / k!) by Horner's rule, one series product per term: the
    definition, kept as the oracle of the recurrence in TruncatedSeries.exp."""
    result = S.one(s.order)
    for k in range(s.order, 0, -1):
        result = result * s * Fraction(1, k) + 1
    return result


@pytest.mark.parametrize(
    "s",
    [
        S([0, 3, -1, 4, -2, 5, 0, 1], 12),
        S([0, Fraction(1, 3), -2, Fraction(5, 7)], 12),
        S([0, R, Y, R * Y + Fraction(1, 2)], 10),
        S([0, 1, R * Fraction(1, 2)], 16),
        S([0, 0, 0, 0, 2], 20),
    ],
)
def test_exp_matches_its_definition(s):
    assert s.exp().coeffs == _exp_by_horner(s).coeffs


def _compose_at_full_order(outer, inner):
    """Horner's rule with every step a full-order series product: the old
    compose, kept as the oracle of the truncated steps."""
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    result = S((outer[n],), n)
    for k in range(n - 1, -1, -1):
        result = result * inner + outer[k]
    return result


coefficients = {
    "int": st.integers(-4, 4),
    "Fraction": st.fractions(-3, 3, max_denominator=5),
    "MultiPoly": st.sampled_from([0, 1, -2, R, Y, R - 1]),
}


@pytest.mark.parametrize("ring", sorted(coefficients))
@given(data=st.data())
def test_compose_matches_the_full_order_horner_loop(ring, data):
    coeff = coefficients[ring]
    outer_order, inner_order = data.draw(st.integers(0, 16)), data.draw(st.integers(0, 16))
    outer = S(data.draw(st.lists(coeff, min_size=outer_order + 1, max_size=outer_order + 1)))
    inner = S([0, *data.draw(st.lists(coeff, min_size=inner_order, max_size=inner_order))])
    assert outer.compose(inner).coeffs == _compose_at_full_order(outer, inner).coeffs


class Counted:
    """An integer coefficient that tallies the products it takes part in."""

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __mul__(self, other):
        self.tally[0] += 1
        return Counted(self.value * getattr(other, "value", other), self.tally)

    def __add__(self, other):
        return Counted(self.value + getattr(other, "value", other), self.tally)

    __rmul__, __radd__ = __mul__, __add__


@pytest.mark.parametrize("n", range(17))
def test_compose_takes_a_sixth_of_the_full_order_products(n):
    tally = [0]
    outer = S([Counted(k % 5 - 2, tally) for k in range(n + 1)])
    inner = S([0] + [Counted(k % 3 + 1, tally) for k in range(1, n + 4)])
    composed = outer.compose(inner)
    assert tally[0] == n * (n + 1) * (n + 2) // 6
    plain = _compose_at_full_order(S([c.value for c in outer]), S([getattr(c, "value", c) for c in inner]))
    assert [c.value for c in composed] == list(plain.coeffs)


def test_egf_to_ogf_examples():
    # e^x is the EGF of the all-ones sequence ...
    assert integer_coeffs(egf_to_ogf(S.x(6).exp())) == [1] * 7
    # ... while the all-ones coefficient list, read as an EGF, encodes n!
    assert integer_coeffs(egf_to_ogf(S.ratio([1], [1, -1], 6))) == [factorial(n) for n in range(7)]
    assert integer_coeffs(egf_to_ogf(S.one(4))) == [1, 0, 0, 0, 0]
    with pytest.raises(NonIntegralResult):
        integer_coeffs(S([Fraction(1, 2)], 3))


def test_truncate_and_index():
    s = series_of([1, 2, 3, 4])
    assert s.truncate(2).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        s.truncate(20)
    assert s[3] == 4
    with pytest.raises(IndexError):
        s[9]


@given(int_series, int_series, int_series)
def test_mul_is_associative_and_commutative(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(unit_series)
def test_inverse_identity(a):
    assert a * a.inverse() == TruncatedSeries.one(a.order)


@given(revertible_series)
def test_reversion_identity_both_directions(f):
    g = f.revert()
    x = TruncatedSeries.x(f.order)
    assert f.compose(g) == x
    assert g.compose(f) == x


@given(zero_const_series, zero_const_series)
def test_exp_homomorphism(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


@given(int_series, zero_const_series, zero_const_series)
def test_compose_associativity(g, f, h):
    assert g.compose(f).compose(h) == g.compose(f.compose(h))

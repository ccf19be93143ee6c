from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from canonical import rings, rings_by_name, typed_all
from riordan.algebra import MultiPoly, R, Y, tidy
from riordan.cold import (
    NonIntegralResult,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    ZeroLinearTerm,
    egf_to_ogf,
    integer_coeffs,
)
from riordan.series import TruncatedSeries

S = TruncatedSeries


def series_of(coeffs, order=8):
    return S(coeffs, order)


int_series = st.lists(st.integers(-5, 5), min_size=9, max_size=9).map(S)


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


def _inverse_by_recurrence(s):
    """1/s one coefficient at a time, b_n = -b_0 sum_(i=1..n) a_i b_(n-i)
    for b_0 = 1/a_0: the oracle, types included once made canonical by
    tidy, of TruncatedSeries.inverse, which reads 1/s from a bivariate GF
    instead."""
    c = s[0].constant_value() if isinstance(s[0], MultiPoly) else s[0]
    out = [c if type(c) is int else 1 / c]
    for n in range(1, s.order + 1):
        out.append(-sum(s[i] * out[n - i] for i in range(1, n + 1)) * out[0])
    return out


# The units of each ring, as constant or linear coefficients; a Fraction
# need not be an integer unit.
units = {
    "int": st.sampled_from([1, -1]),
    "Fraction": st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(3)]),
    "MultiPoly": st.sampled_from([-1, MultiPoly.const(1), MultiPoly.const(Fraction(-1, 2))]),
}


@given(st.sampled_from(sorted(units)), st.data())
def test_inverse_matches_its_coefficient_recurrence(ring, data):
    """On drawn series of every ring with a unit constant term, inverse
    agrees with the coefficient loop, types compared (canonical, as tidy
    gives them), and inverts."""
    s = S([data.draw(units[ring]), *data.draw(st.lists(rings_by_name[ring], max_size=12))])
    assert typed_all(s.inverse()) == typed_all(map(tidy, _inverse_by_recurrence(s)))
    assert s * s.inverse() == 1


@given(st.sampled_from(sorted(units)), st.data())
def test_ratio_matches_the_product_with_the_inverse(ring, data):
    """ratio(num, den) equals num times the coefficient loop's 1/den,
    types compared (canonical, as tidy gives them), for drawn num and den
    of every ring, den with a unit constant term."""
    order = data.draw(st.integers(0, 12))
    num = data.draw(st.lists(rings_by_name[ring], max_size=12))
    den = [data.draw(units[ring]), *data.draw(st.lists(rings_by_name[ring], max_size=12))]
    want = S(num, order) * S(_inverse_by_recurrence(S(den, order)))
    assert typed_all(S.ratio(num, den, order)) == typed_all(map(tidy, want))


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

    # A lone linear term, one of -1, 71 rows, and coefficients of 40 bits.
    for f in S([0, 1]), S([0, -1, 0, 0]), S([0, 1, 1] + [0] * 68), S([0, 1] + [2**40] * 11):
        fbar, x = f.revert(), S.x(f.order)
        assert f.compose(fbar) == x and fbar.compose(f) == x


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
    # Canonical coefficients, as revert returns them: an integral one is an int.
    assert typed_all(S([0, 2], 4).exp()) == typed_all([1, 2, 2, Fraction(4, 3), Fraction(2, 3)])
    assert typed_all(S([0, 2 * R], 3).exp()) == typed_all([1, 2 * R, 2 * R**2, Fraction(4, 3) * R**3])

    with pytest.raises(NonzeroConstantTerm, match="exp needs a zero constant term"):
        series_of([1, 1]).exp()


def _exp_by_horner(s):
    """sum(s**k / k!) by Horner's rule, one series product per term: the
    definition, kept as the oracle of TruncatedSeries.exp."""
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
    assert typed_all(s.exp()) == typed_all(map(tidy, _exp_by_horner(s)))


@given(rings.flatmap(lambda ring: st.lists(ring, max_size=12)).map(lambda rest: S([0, *rest])))
def test_exp_matches_the_recurrence_it_replaced(s):
    """On drawn series exp agrees with its definition, types compared, and
    meets n e_n = sum_k k f_k e_(n-k), the recurrence its Hurwitz form replaced."""
    e = s.exp()
    assert typed_all(e) == typed_all(map(tidy, _exp_by_horner(s)))
    for n in range(1, s.order + 1):
        assert n * e[n] == sum(k * s[k] * e[n - k] for k in range(1, n + 1))


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
    "Fraction": st.builds(Fraction, st.integers(-15, 15), st.integers(1, 5)),
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
    # Canonical coefficients: an integral Fraction comes back an int, and
    # a MultiPoly's coefficients ints where integral.
    ogf = egf_to_ogf(S([Fraction(2), Fraction(1, 3), Fraction(1, 2), R * Fraction(1, 6)]))
    assert typed_all(ogf) == typed_all([2, Fraction(1, 3), 1, R])
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


@given(st.sampled_from(sorted(coefficients)), st.integers(1, 20), st.data())
def test_reversion_identity_both_directions(ring, order, data):
    rest = data.draw(st.lists(coefficients[ring], min_size=order - 1, max_size=order - 1))
    f = S([0, data.draw(units[ring]), *rest])
    g = f.revert()
    x = TruncatedSeries.x(order)
    assert f.compose(g) == x
    assert g.compose(f) == x
    assert g.order == order and typed_all(g) == typed_all(map(tidy, g))

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from canonical import typed
from riordan.algebra import MultiPoly, R, Y, _trusted


def poly(text_terms):
    return MultiPoly(text_terms)


monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
small_polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=5).map(MultiPoly)
values = st.integers(-3, 3) | st.dictionaries(monomials, st.integers(-3, 3), max_size=2).map(MultiPoly)
assignments = st.fixed_dictionaries({}, optional={"r": values, "y": values})


def test_zero_coefficients_are_dropped():
    assert MultiPoly({(1, 0): 0, (0, 0): 3}) == 3
    assert not MultiPoly({(2, 1): 0})
    assert str(MultiPoly()) == "0"


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        MultiPoly({(-1, 0): 1})


def test_addition_examples():
    assert (R + 4) + (R + 4) == 2 * R + 8
    assert (Y + 1) + 0 == Y + 1
    lhs = 4 * Y**2 + 4 * Y + 1
    rhs = Y**2 + Y
    assert lhs + rhs == 5 * Y**2 + 5 * Y + 1


def test_multiplication_examples():
    assert (Y + 1) * (Y + 1) == Y**2 + 2 * Y + 1
    assert R * Y * (Y + 1) == R * Y**2 + R * Y
    assert (2 * Y + 1) ** 2 == 4 * Y**2 + 4 * Y + 1


def test_substitute_examples():
    assert (R**2 + 12 * R + 16).substitute(r=1) == 29
    assert (6 * R**2 + 32 * R + 32).substitute(r=0) == 32
    assert (R + 4).substitute(r=2) == 6


def test_partial_substitution_keeps_other_variable():
    p = R * Y**2 + 3 * Y + R
    assert p.substitute(r=2) == 2 * Y**2 + 3 * Y + 2
    assert p.substitute(y=1) == 2 * R + 3
    assert p.substitute(y=Y + 1) == R * (Y + 1) ** 2 + 3 * (Y + 1) + R
    assert p.substitute(r=Y, y=R) == Y * R**2 + 3 * R + Y
    with pytest.raises(ValueError):
        p.substitute(x=1)


@pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (15, 7), (16, 5)])
def test_power_squares_only_while_exponent_bits_remain(monkeypatch, k, products):
    base = 1 + R + Y
    want = MultiPoly.const(1)
    for _ in range(k):
        want = want * base
    calls = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert base**k == want
    assert len(calls) == products


def test_rendering_is_canonical():
    assert str(3 * R**2 + 24 * R + 16) == "3*r^2 + 24*r + 16"
    assert str(R * Y**2 + 4 * Y**2 + R * Y + 4 * Y + 1) == "r*y^2 + 4*y^2 + r*y + 4*y + 1"
    assert str(-R + 1) == "-r + 1"
    assert str(Y - Y) == "0"
    assert str(MultiPoly({(1, 1): Fraction(-5, 2), (0, 0): 1})) == "-5/2*r*y + 1"


def test_inspection_helpers():
    p = R**2 * Y + 3 * Y + 7
    assert p.degree("r") == 2 and p.degree("y") == 1
    assert p.y_coefficients() == [7, R**2 + 3]
    assert MultiPoly().y_coefficients() == [0]
    assert p.coefficient(2, 1) == 1
    assert (2 * R).has_integer_coefficients()
    assert not (R * Fraction(1, 2)).has_integer_coefficients()
    assert MultiPoly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    with pytest.raises(ValueError):
        (R + Y).constant_value()


@given(small_polys, small_polys)
def test_integral_coefficients_are_stored_as_int(a, b):
    assert all(type(c) is int for p in (a + b, a * b, a - b) for _, c in p.items())
    assert all(type(c) is int for _, c in ((a + b) * Fraction(1, 3) * 3).items())


rationals = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=4)
rational_polys = st.dictionaries(monomials, rationals, max_size=5).map(MultiPoly)


def _typed_terms(p):
    return {m: (c, type(c)) for m, c in p.items()}


@given(rational_polys, rationals | st.booleans() | rational_polys, st.integers(0, 3))
@example(MultiPoly.const(Fraction(1, 2)), 2, 1)
@example(MultiPoly.const(Fraction(1, 2)), MultiPoly.const(Fraction(-4)), 2)
@example(MultiPoly({(1, 0): Fraction(1, 3)}), True, 3)
def test_ring_results_are_canonical(p, other, exponent):
    # Ring results skip __init__: each must hold exactly the terms, and
    # coefficient types, that validating its terms again gives.
    results = [p + other, other + p, p - other, other - p, p * other, other * p, -p, p**exponent]
    for q in results + p.y_coefficients():
        assert type(q) is MultiPoly
        assert _typed_terms(q) == _typed_terms(MultiPoly(dict(q.items())))


def _add_in_two_passes(p, other):
    """Sum every term of other into a copy of p's terms, then rescan them
    all: the add that the one-pass MultiPoly.__add__ replaced, kept as its
    oracle."""
    terms = other if isinstance(other, MultiPoly) else MultiPoly.const(other)
    out = dict(p.items())
    for m, c in terms.items():
        out[m] = out.get(m, 0) + c
    return _trusted(out)


@given(rational_polys, rationals | st.booleans() | rational_polys)
@example(MultiPoly({(1, 0): Fraction(1, 2), (0, 0): 3}), MultiPoly({(1, 0): Fraction(1, 2), (0, 0): -3}))
@example(R + 1, 0)
def test_add_matches_the_two_pass_add(p, other):
    want = typed(_add_in_two_passes(p, other))
    assert typed(p + other) == typed(other + p) == want
    assert typed(p - other) == typed(_add_in_two_passes(p, -other))


def test_only_non_integral_coefficients_are_fractions():
    half = (R + 1) * Fraction(1, 2)
    assert type(half.coefficient(1, 0)) is Fraction
    assert str(half) == "1/2*r + 1/2"
    assert str(half * 2) == "r + 1"
    two = MultiPoly({(0, 1): Fraction(6, 3)}).coefficient(0, 1)
    assert two == 2 and type(two) is int
    assert hash(MultiPoly({(1, 0): Fraction(3)})) == hash(3 * R)


def test_power_and_hash():
    assert R**0 == 1
    assert (R + Y) ** 3 == (R + Y) * (R + Y) * (R + Y)
    assert hash(R + Y) == hash(Y + R)
    with pytest.raises(ValueError):
        R ** (-1)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys, assignments)
def test_substitution_is_a_homomorphism(a, b, sub):
    assert (a * b).substitute(sub) == a.substitute(sub) * b.substitute(sub)
    assert (a + b).substitute(sub) == a.substitute(sub) + b.substitute(sub)


@given(
    st.integers(-50, 50),
    st.integers(1, 40),
    st.integers(-50, 50),
    st.integers(1, 40),
)
def test_fractions_stay_reduced(a, b, c, d):
    from math import gcd

    total = Fraction(a, b) + Fraction(c, d)
    assert total.denominator > 0
    assert gcd(total.numerator, total.denominator) == 1


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 80), st.integers(0, 80)),
        st.fractions(max_denominator=10**30) | st.integers(-(2**400), 2**400),
        max_size=6,
    ).map(MultiPoly)
)
def test_parse_reads_back_what_str_prints(p):
    assert MultiPoly.parse(str(p)) == p


@pytest.mark.parametrize(
    "text", ["", "r+1", "1 + r", "1*r", "r^1", "r + r", "2*r*r", "-0", "x", " r", "1/0", "r^-1", "2/4"]
)
def test_parse_rejects_text_that_str_does_not_print(text):
    with pytest.raises(ValueError, match="not a canonical polynomial"):
        MultiPoly.parse(text)

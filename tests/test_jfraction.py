import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from canonical import typed, typed_all, typed_rows
from riordan.algebra import MultiPoly, R, Y
from riordan.arrays import NonIntegralEntry, triangle_from_series
from riordan.cold import binomial_transform, integer_coeffs
from riordan.expr import MAX_DEPTH, MAX_EXPONENT, ParseError, parse_index_poly, parse_poly
from riordan.jfraction import IndexPoly, JFraction


def J(alpha, beta):
    return JFraction(alpha, beta)


def test_expand_examples():
    aerated = J(IndexPoly.constant(0), IndexPoly.index()).expand(7)
    assert integer_coeffs(aerated) == [1, 0, 1, 0, 3, 0, 15, 0]

    weighted = J(IndexPoly.constant(2 * Y + 1), IndexPoly.from_coeffs([0, R * Y * (Y + 1)]))
    c2 = weighted.expand(2)[2]
    assert c2 == 4 * Y**2 + 4 * Y + 1 + R * Y * (Y + 1)
    assert c2.substitute(r=1) == 1 + 5 * Y + 5 * Y**2

    trivial = J(IndexPoly.constant(0), IndexPoly.constant(0))
    assert trivial.expand(6) == 1


def test_binomial_shift_examples():
    frac = J(IndexPoly.constant(1), IndexPoly.from_coeffs([0, R * Y]))
    shifted = frac.binomial_shift(Y)
    assert shifted.alpha == IndexPoly.constant(Y + 1)
    assert shifted.beta == frac.beta

    assert frac.binomial_shift(0) == frac

    twice = J(IndexPoly.constant(0), IndexPoly.index()).binomial_shift(2)
    assert integer_coeffs(twice.expand(4)) == [1, 2, 5, 14, 43]


def test_binomial_transform_examples():
    assert binomial_transform([1, 0, 0, 0], 1) == [1, 1, 1, 1]
    assert binomial_transform([1, 0, 1, 0, 3], 1) == [1, 1, 2, 4, 10]
    data = [5, -1, 7, MultiPoly.const(3)]
    assert binomial_transform(data, 0) == data


def _binomial_transform_by_sums(seq, k):
    """b_n = sum_i C(n, i) k^(n-i) a_i, term by term over the powers of k:
    the sum that the difference table replaced, kept as its oracle."""
    powers = [MultiPoly.const(1)]  # powers[j] == k**j
    for _ in range(1, len(seq)):
        powers.append(powers[-1] * k)
    out = []
    for n in range(len(seq)):
        acc = MultiPoly.coerce(seq[n])
        for i in range(n):
            acc = acc + comb(n, i) * powers[n - i] * seq[i]
        out.append(acc)
    return out


# Values of one ring per example: int, Fraction or MultiPoly.
rings = st.sampled_from([
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.sampled_from([0, 1, -2, R, Y, Y + 1, R * Fraction(1, 2) - Y]),
])


@given(rings, st.data())
def test_binomial_transform_matches_the_direct_sum(ring, data):
    seq, k = data.draw(st.lists(ring, max_size=9)), data.draw(ring)
    assert typed_all(binomial_transform(seq, k)) == typed_all(_binomial_transform_by_sums(seq, k))


def test_transfer_examples():
    assoc_gamma = J(IndexPoly.constant(1), IndexPoly.constant(Y))
    perm_gamma = assoc_gamma.transfer()
    assert perm_gamma.alpha == IndexPoly.from_coeffs([1, 1])
    assert perm_gamma.beta == IndexPoly.from_coeffs([0, Y, Y])
    assert [perm_gamma.beta(i) for i in (1, 2, 3)] == [2 * Y, 6 * Y, 12 * Y]

    assoc_h = J(IndexPoly.constant(Y + 1), IndexPoly.constant(Y))
    perm_h = assoc_h.transfer()
    assert [perm_h.alpha(i) for i in (0, 1, 2)] == [Y + 1, 2 * (Y + 1), 3 * (Y + 1)]
    assert [perm_h.beta(i) for i in (1, 2, 3)] == [2 * Y, 6 * Y, 12 * Y]

    zero = J(IndexPoly.constant(0), IndexPoly.constant(0))
    assert zero.transfer() == zero


def test_transfer_scales_levels_pointwise():
    frac = J(IndexPoly.from_coeffs([1, Y]), IndexPoly.from_coeffs([R, 0, 2]))
    moved = frac.transfer()
    for i in range(6):
        assert moved.alpha(i) == (i + 1) * frac.alpha(i)
        assert moved.beta(i) == i * (i + 1) * frac.beta(i)


DOMAIN_CASES = {
    "gamma_to_h alpha has y": ("gamma_to_h", J(IndexPoly.constant(Y + 1), IndexPoly.constant(Y))),
    "gamma_to_h beta term of y-degree 0": ("gamma_to_h", J(IndexPoly.constant(1), IndexPoly.from_coeffs([R * Y, R]))),
    # A rise and fall would weigh (1+y)^2 beta(y/(1+y)^2) = y^2/(1+y)^2.
    "gamma_to_h beta term of y-degree 2": ("gamma_to_h", J(IndexPoly.constant(1), IndexPoly.constant(Y**2))),
    "reversed alpha of y-degree 2": ("reversed", J(IndexPoly.from_coeffs([1, Y**2]), IndexPoly.constant(Y))),
    "reversed beta of y-degree 3": ("reversed", J(IndexPoly.constant(Y), IndexPoly.constant(Y**3))),
}


@pytest.mark.parametrize("mapping, frac", DOMAIN_CASES.values(), ids=DOMAIN_CASES)
def test_maps_reject_fractions_outside_their_domain(mapping, frac):
    with pytest.raises(ValueError):
        getattr(frac, mapping)()


def polys(y_degrees):
    """Polynomials in r and y whose terms have their y-degree in y_degrees."""
    terms = st.tuples(st.integers(0, 1), st.sampled_from(y_degrees))
    return st.dictionaries(terms, st.integers(-2, 2), max_size=3).map(MultiPoly)


def index_polys(coeffs):
    return st.lists(coeffs, max_size=3).map(IndexPoly.from_coeffs)


orders = st.integers(0, 10)


@given(index_polys(polys([0])), index_polys(polys([1])), orders)
def test_gamma_to_h_gives_the_gamma_expansion_of_every_row(alpha, beta, order):
    # h_n = sum_k gamma[n,k] y^k (1+y)^(n-2k)
    gamma = J(alpha, beta)
    h = [sum((c * Y**k * (1 + Y) ** (n - 2 * k) for k, c in enumerate(row)), MultiPoly())
         for n, row in enumerate(gamma.rows(order))]
    assert typed_rows(gamma.gamma_to_h().expand(order)) == typed_rows(h)


@given(index_polys(polys([0, 1, 2])), index_polys(polys([0, 1, 2])), orders)
def test_h_to_f_evaluates_every_row_at_one_plus_y(alpha, beta, order):
    # f_n(y) = h_n(1 + y)
    h = J(alpha, beta)
    f = [sum((c * (1 + Y) ** k for k, c in enumerate(row)), MultiPoly()) for row in h.rows(order)]
    assert typed_rows(h.h_to_f().expand(order)) == typed_rows(f)


@given(index_polys(polys([0, 1])), index_polys(polys([0, 1, 2])), orders)
def test_reversed_reads_every_row_backwards(alpha, beta, order):
    frac = J(alpha, beta)
    rows = triangle_from_series(frac.expand(order))
    assert triangle_from_series(frac.reversed().expand(order)) == rows.reversed()


@pytest.mark.parametrize(
    "alpha", [IndexPoly.constant(Y**2), IndexPoly.from_coeffs([Y**2, 1])], ids=["row recurrence", "walk"]
)
def test_triangle_refuses_a_row_deeper_in_y_than_its_index(alpha):
    # Row 1 is alpha(0) = y^2, of y-degree 2, whichever engine expands it.
    with pytest.raises(ValueError, match=r"^coefficient of x\^1 has y-degree 2 > n$"):
        J(alpha, IndexPoly.index()).triangle(4)


def test_triangle_checks_each_entry_of_a_fraction_with_a_denominator():
    # alpha = i(i+1)/2 is an int at every level, so its rows are ints,
    # cleared of the denominator 2; alpha = 1/2 makes row 1 1/2.
    whole = J(IndexPoly.from_coeffs([0, Fraction(1, 2), Fraction(1, 2)]), IndexPoly.index())
    assert whole.plan(6).den == 2 and {type(e) for row in whole.triangle(6).rows for e in row} == {int}
    with pytest.raises(NonIntegralEntry, match=r"^entry is not an integer: 1/2$"):
        J(IndexPoly.constant(Fraction(1, 2)), IndexPoly.index()).triangle(4)


def test_index_poly_arithmetic():
    i = IndexPoly.index()
    assert (i + 1) * i == IndexPoly.from_coeffs([0, 1, 1])
    assert (i + 1) ** 2 == i * i + 2 * i + 1
    assert i - i == IndexPoly.from_coeffs([])
    assert IndexPoly.from_coeffs([1, 0, 0]) == IndexPoly.constant(1)
    assert i(5) == 5 and (i * i + 1)(3) == 10


def _horner(p, i):
    """p at level i by Horner steps over MultiPoly: the oracle of
    IndexPoly.__call__, which adds every term into one dict."""
    acc = MultiPoly.const(0)
    for c in reversed(p.coeffs):
        acc = acc * i + c
    return acc


rational_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-9, 9) | st.fractions(max_denominator=6), max_size=4
).map(MultiPoly)


@given(st.lists(rational_polys, max_size=5).map(IndexPoly.from_coeffs), st.integers(-4, 40))
@example(IndexPoly.from_coeffs([2 * Y + R, -Y]), 2)  # y cancels
@example(IndexPoly.from_coeffs([Fraction(1, 2), Fraction(1, 2)]), 1)  # an integral sum of Fractions
@example(IndexPoly(()), 3)  # zero
def test_index_poly_evaluates_as_its_horner_form(p, i):
    assert typed(p(i)) == typed(_horner(p, i))


def test_parse_examples():
    assert parse_index_poly("2*y+1") == IndexPoly.constant(2 * Y + 1)
    assert parse_index_poly("i*r*y*(y+1)") == IndexPoly.from_coeffs([0, R * Y * (Y + 1)])
    assert parse_index_poly("i^2 + 3*i") == IndexPoly.from_coeffs([0, 3, 1])
    assert parse_index_poly("-y + 1") == IndexPoly.constant(1 - Y)
    assert parse_index_poly("1/2*r") == IndexPoly.constant(R * Fraction(1, 2))
    assert parse_index_poly("2y") == IndexPoly.constant(2 * Y)  # implicit product
    assert parse_index_poly("i(i+1)") == IndexPoly.from_coeffs([0, 1, 1])


def test_parse_round_trip_through_rendering():
    for expr in ("2*y+1", "i*r*y*(y+1)", "(y+1)*i + y + 1", "i^2 - 4"):
        value = parse_index_poly(expr)
        assert parse_index_poly(str(value)) == value


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_index_poly("2*y+")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_index_poly("(y")
    with pytest.raises(ParseError):
        parse_index_poly("z + 1")
    with pytest.raises(ParseError):
        parse_index_poly("i^y")
    with pytest.raises(ParseError):
        parse_index_poly("1/0")


def test_parse_caps_exponents():
    assert parse_index_poly(f"y^{MAX_EXPONENT}") == IndexPoly.constant(Y**MAX_EXPONENT)
    assert parse_index_poly("(1+i+r+y)^32").degree() == MAX_EXPONENT
    assert parse_index_poly("(1/4294967296*y)^32") == IndexPoly.constant(Fraction(1, 2**1024) * Y**32)
    assert parse_index_poly("i*(i+1)*r*y") == IndexPoly.from_coeffs([0, R * Y, R * Y])
    for text in ("2*y+1", "i*r*y*(y+1)", "y+1", "i*r*y", "(i+1)*(2*y+1)", "i*(i+1)*y*(y+1)",
                 "r*y*(y+1)", "1", "i+1", "i*(i+1)*r*y"):  # the benchmark's jf texts
        parse_index_poly(text)
    # Rejected at the literal, before any arithmetic.
    with pytest.raises(ParseError) as err:
        parse_index_poly(f"y^{MAX_EXPONENT + 1}")
    assert err.value.position == 2


@pytest.mark.parametrize(
    "text, position",
    [
        ("((1+i+r+y)^32)^2", 14),  # degree 64, at the outer ^
        ("y*y^32", 1),  # degree 33, at the *
        ("iy^32", 1),  # degree 33, at the implicit product
        ("(((2^32)^32)^32)^32", 12),  # coefficient of 32768 bits
        ("(1/4294967297*y)^32", 16),  # denominator of 1056 bits
        ("1" * 5000, 0),  # literal beyond MAX_LITERAL_DIGITS
        ("(" * 300 + "1" + ")" * 300, MAX_DEPTH),  # at the first '(' too deep
        ("-" * 3000 + "1", MAX_DEPTH + 1),  # the first '-' is the sign of the sum
    ],
)
def test_parse_bounds_every_intermediate(text, position):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_index_poly(text)
    assert err.value.position == position
    assert time.perf_counter() - start < 1.0


@given(st.text(alphabet="iry0123456789+-*^/() ", max_size=24))
def test_parse_accepts_or_raises_parse_error(text):
    try:
        parse_index_poly(text)
    except ParseError:
        pass


def test_parse_nests_up_to_max_depth():
    assert parse_index_poly("(" * MAX_DEPTH + "y" + ")" * MAX_DEPTH) == IndexPoly.constant(Y)
    assert parse_index_poly("-" * (MAX_DEPTH + 1) + "y") == IndexPoly.constant(-Y)


def test_parse_poly_rejects_the_index_variable():
    assert parse_poly("r*y + 3") == R * Y + 3
    with pytest.raises(ParseError):
        parse_poly("i + 1")

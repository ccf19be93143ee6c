"""The engines of JFraction.rows against the Motzkin walk (JFraction.expand)
they replace: on hypothesis-drawn fractions of each shape and near misses,
on the family fractions, and through the CLI, where ``jf`` of a family's
fraction prints the rows ``show`` prints; a Kronecker certificate of the
symbolic triangles at large N against the Riordan route; the fraction given
back by its rows, through their moments at a Kronecker point; a value of r
written into a fraction against its symbolic rows at that value; and the
plan (JFraction.plan) of each request kind the benchmark decks send."""

import functools
import json
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from canonical import at_r, typed_all, typed_rows
from riordan import walk
from riordan.algebra import MultiPoly, R, Y, tidy
from riordan.cli import main
from riordan.cold import dense_family_triple
from riordan.expr import parse_index_poly
from riordan.families import FamilySpec, Kind, family_fractions, family_triple, family_matrix, member_fraction, named_triple
from riordan.jfraction import IndexPoly, JFraction, Plan

FLAVORS = (Kind.ORDINARY, Kind.EXPONENTIAL)
JF_TEMPLATES = {  # the benchmark's jf fractions: alpha, beta, the (engine, layout) of their plan
    "exp-face": ("2*y+1", "i*r*y*(y+1)", ("hermite", "r-packed")),
    "exp-h": ("y+1", "i*r*y", ("hermite", "r-packed")),
    "exp-gamma": ("1", "i*r*y", ("hermite", "MultiPoly")),  # under half its slots filled
    "perm-face": ("(i+1)*(2*y+1)", "i*(i+1)*y*(y+1)", ("walk", "y-packed")),
    "perm-gamma": ("i+1", "i*(i+1)*r*y", ("walk", "MultiPoly")),  # its weights hold r
    "const-face": ("2*y+1", "r*y*(y+1)", ("level-independent", "r-packed")),
}


coefficients = st.integers(-5, 5) | st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def polys(r_degree, y_degrees):
    terms = st.tuples(st.integers(0, r_degree), st.sampled_from(y_degrees))
    return st.dictionaries(terms, coefficients, max_size=4).map(MultiPoly)


EXTREME_R = [2**1024 * R - R**32, Fraction(1, 3**40) * R**2 + 1]
# Values of r free of y: gamma_to_h needs each term of beta of y-degree 1,
# so an r holding y has no h or f fraction.
r_values = st.sampled_from([R, -2, -1, 0, 3, 2 - 3 * R, R**2 - R, Fraction(1, 2) * R, *EXTREME_R]) | polys(2, [0])


@given(st.sampled_from(FLAVORS), st.sampled_from(["gamma", "h", "f"]), r_values, st.integers(0, 12))
@example(Kind.EXPONENTIAL, "f", EXTREME_R[0], 8)
@example(Kind.ORDINARY, "h", EXTREME_R[1], 8)
def test_row_recurrence_matches_its_multipoly_loop(flavor, which, r, size):
    frac = getattr(family_fractions(FamilySpec(flavor, r)), which)
    assert [typed_all(row) for row in frac.rows(size)] == typed_rows(frac.expand(size))


@pytest.mark.parametrize("weight", [1, -1, 127, -128, 128, 255, 256, 2**64 - 1, 2**64, -(2**64)])
@pytest.mark.parametrize("scale", [1, R], ids=["int", "poly"])
def test_a_slot_holds_a_coefficient_as_large_as_the_bound(weight, scale):
    # Row 2 of the gamma triangle is 1 + ry: its cell w r is as large as the
    # bound 1 + |w| allows.
    r = weight * scale
    assert family_matrix(FamilySpec(Kind.ORDINARY, r), "gamma", 2).rows[2] == (1, r, 0)


# Both flavours are certified at N = 100.  The Riordan route runs on ints:
# the exponential array in Hurwitz form, e^x and x + r x^2/2 as 1, 1, ...
# and 0, 1, r, and at r = 2^B its rows are read from the bivariate GF at
# y = 2^V, V of 9256 (ordinary) and 17264 bits.  Each flavour takes about
# 1 s on a 2-core x86-64 host.
CERTIFIED_N = {Kind.ORDINARY: 100, Kind.EXPONENTIAL: 100}


def _row_sums(frac, size_n):
    """The rows at r = y = 1, by the walk."""
    at_one = JFraction(*(IndexPoly.from_coeffs([c.substitute(r=1, y=1) for c in p.coeffs]) for p in frac))
    return [MultiPoly.coerce(s).constant_value() for s in at_one.expand(size_n)]


@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
def test_kronecker_certificate_at_large_n(flavor):
    # Every coefficient is a nonnegative integer at most its row's value at
    # r = y = 1, so it is one base-2^B digit of the entry at r = 2^B, and the
    # Riordan route at that one integer fixes every coefficient.
    size_n = CERTIFIED_N[flavor]
    symbolic = family_triple(FamilySpec(flavor, R), size_n)
    bits = 1 + max(max(_row_sums(frac, size_n)) for frac in family_fractions(FamilySpec(flavor, R))).bit_length()
    dense = dense_family_triple(FamilySpec(flavor, 2**bits), size_n)
    for sym, den in zip(symbolic, dense):
        for sym_row, den_row in zip(sym.rows, den.rows):
            for entry, value in zip(sym_row, den_row):
                terms = [((0, 0), entry)] if isinstance(entry, int) else list(entry.items())
                assert all(0 <= c < 2**bits for _, c in terms)
                assert sum(c << (bits * i) for (i, _), c in terms) == value


# The walk at large order, in the layout its plan would give it, against the
# row recurrence, a different algorithm with its own slot bound, on each
# flavour's gamma, h and f fractions and on the associahedron's, whose
# levels are free of i (f reversed).  The associahedron's walk runs packed,
# as it is free of r.
MOTZKIN_N = {
    FamilySpec(Kind.EXPONENTIAL, R): {"gamma": 100, "h": 60, "f": 60},
    FamilySpec(Kind.ORDINARY, R): {"gamma": 40, "h": 40, "f": 40},
    "associahedron": {"gamma": 100, "h": 100, "f": 100},
}


@pytest.mark.parametrize("which", ["f", "gamma", "h"])
def test_motzkin_walk_matches_the_row_recurrence_at_large_n(which):
    for family, sizes in MOTZKIN_N.items():
        frac, size_n = member_fraction(family, which), sizes[which]
        plan = Plan("walk", *walk._layout(frac, size_n))
        assert plan.layout == ("y-packed" if family == "associahedron" else "MultiPoly")
        assert frac.plan(size_n).engine != "walk"
        assert [typed_all(row) for row in walk.rows(frac, size_n, plan)] == [typed_all(row) for row in frac.rows(size_n)]


# -- the fraction given back by its rows ---------------------------------------


def _chebyshev(moments):
    """alpha_0, beta_1, alpha_1, beta_2, ...: the levels and weights of the
    J-fraction whose expansion begins with the moments m_0..m_N (N >= 1),
    by Chebyshev's recursion on the modified moments
    s_k(l) = s_{k-1}(l+1) - alpha_{k-1} s_{k-1}(l) - beta_{k-1} s_{k-2}(l)
    (W. Gautschi, SIAM J. Sci. Stat. Comput. 3, 1982).  Value j is fixed by
    m_0..m_{j+1}, so the N values use every moment, and each comes as soon
    as the moments fix it."""
    top = len(moments) - 1
    before, now = [0] * (top + 1), [Fraction(m) for m in moments]
    alpha, beta = now[1] / now[0], 0
    yield alpha
    for k in range(1, top // 2 + 1):
        after = [None] * k + [now[l + 1] - alpha * now[l] - beta * before[l] for l in range(k, top - k + 1)]
        beta = after[k] / now[k - 1]
        yield beta
        if 2 * k < top:
            alpha = after[k + 1] / after[k] - now[k] / now[k - 1]
            yield alpha
        before, now = now, after


def _at_kronecker_point(frac, rows):
    """The rows' moments and the fraction's alpha_0, beta_1, alpha_1, ...
    (as :func:`_chebyshev` yields them, one per moment but the first) at one
    Kronecker point: r = 2^B and y = 2^(B (deg_r + 1)), B above every
    coefficient's bit length, so that each moment is an injective image of
    its row."""
    terms = [(i, c) for row in rows for e in row for (i, _), c in MultiPoly.coerce(e).items()]
    bits, stride = 2 + max(abs(c).bit_length() for _, c in terms), 1 + max(i for i, _ in terms)

    def at(poly, shift=0):
        return sum(c << bits * (i + stride * (j + shift)) for (i, j), c in MultiPoly.coerce(poly).items())

    moments = [sum(at(e, j) for j, e in enumerate(row)) for row in rows]
    return moments, [at(frac.beta(j // 2 + 1) if j % 2 else frac.alpha(j // 2)) for j in range(len(rows) - 1)]


def _first_wrong_level(frac, rows):
    """Where the rows' moments first give back a level or weight other than
    the fraction's own, or None (:func:`_at_kronecker_point`)."""
    moments, own = _at_kronecker_point(frac, rows)
    return next((j for j, (got, want) in enumerate(zip(_chebyshev(moments), own, strict=True)) if got != want), None)


CERTIFIED = {  # alpha, beta: fractions of every engine and layout a plan names but level one's
    "signed": ("3*y-2", "5*r^2*y-7"),
    **{name: (alpha, beta) for name, (alpha, beta, _) in JF_TEMPLATES.items()},
    **{f"{polytope} {which}": tuple(map(str, getattr(named_triple(polytope), which)))
       for polytope in ("associahedron", "permutahedron") for which in ("gamma", "h", "f")},
}


@pytest.mark.parametrize("alpha, beta", CERTIFIED.values(), ids=list(CERTIFIED))
def test_the_rows_give_back_their_fraction(alpha, beta):
    # A certificate that shares no code with the engines: the moments of a
    # J-fraction fix its levels one by one while every weight is nonzero
    # (Flajolet 1980).  A level-one fraction has a zero weight, beta_2, and
    # is certified below.  The signed fraction takes about half of the 1.5 s,
    # on a 2-core x86-64 host.
    frac = JFraction(parse_index_poly(alpha), parse_index_poly(beta))
    assert _first_wrong_level(frac, frac.rows(40)) is None


LEVEL_ONE = {  # alpha, beta of fractions that stop at level 1 (alpha_1 = beta_2 = 0)
    **{f"ordinary {which}": tuple(map(str, getattr(family_fractions(FamilySpec(Kind.ORDINARY, R)), which)))
       for which in ("gamma", "h", "f")},
    **{f"{polytope} {which}": tuple(map(str, member_fraction(polytope, which)))
       for polytope in ("simplex", "hypercube") for which in ("gamma", "h", "f")},
    "golden": ("1-i", "r*y*(2-i)"),
}


def _finite_fraction_holds(frac, rows, depth):
    """Whether the rows' moments give back the fraction's alpha_0, beta_1,
    ..., alpha_depth, each as far as the moments fix it (not past a zero
    weight), and then obey the convergent of the finite fraction, where
    beta_(depth+1) = 0: Q S = P to x^N, with Q_(k+1) = (1 - alpha_k x) Q_k
    - beta_k x^2 Q_(k-1) from Q_(-1) = 0, Q_0 = 1 and P the same from
    P_0 = 0, P_1 = 1, taken at k = depth + 1."""
    moments, own = _at_kronecker_point(frac, rows)
    fixed = next((j + 1 for j in range(1, 2 * depth, 2) if not own[j]), 2 * depth + 1)
    q, p = [[0], [1]], [[0], [1]]  # Q_(-1), Q_0 and P_0, P_1
    for k in range(depth + 1):
        beta, alpha = own[2 * k - 1] if k else 0, own[2 * k]
        q.append(_three_term(q[-1], q[-2], beta, alpha))
        if k:
            p.append(_three_term(p[-1], p[-2], beta, alpha))
    q, p = q[-1], p[-1] + [0] * len(moments)
    return list(islice(_chebyshev(moments), fixed)) == own[:fixed] and all(
        sum(c * moments[n - i] for i, c in enumerate(q[: n + 1])) == p[n] for n in range(len(moments))
    )


def _three_term(v, before, beta, alpha):
    """(1 - alpha x) v - beta x^2 before, polynomials in x as coefficient lists."""
    out = [0] * (max(len(v) + 1, len(before) + 2))
    for i, c in enumerate(v):
        out[i] += c
        out[i + 1] -= alpha * c
    for i, c in enumerate(before):
        out[i + 2] -= beta * c
    return out


@pytest.mark.parametrize("alpha, beta", LEVEL_ONE.values(), ids=list(LEVEL_ONE))
def test_the_rows_of_a_level_one_fraction_give_back_their_fraction(alpha, beta):
    # beta_2 = 0, so the recursion above stops after alpha_1; the fraction
    # is finite, and its moments obey its convergent from there.  A +1 in
    # row N breaks the convergent at m_N.
    frac = JFraction(parse_index_poly(alpha), parse_index_poly(beta))
    assert frac.plan(40).engine == "level one"
    rows = frac.rows(40)
    assert _finite_fraction_holds(frac, rows, 1)
    rows[40][-1] += 1
    assert not _finite_fraction_holds(frac, rows, 1)


def test_the_rows_of_a_fraction_that_stops_above_level_one_give_back_their_fraction():
    # beta(i) = i(3 - i) y vanishes at i = 3, so the fraction stops at
    # level 2 though its weights go on: no path back to height 0 crosses
    # the fall from 3 to 2.  It takes the walk.
    frac = JFraction(parse_index_poly("1+i"), parse_index_poly("i*(3-i)*y"))
    assert frac.plan(40).engine == "walk"
    rows = frac.rows(40)
    assert _finite_fraction_holds(frac, rows, 2)
    rows[40][-1] += 1
    assert not _finite_fraction_holds(frac, rows, 2)


def test_a_wrong_cell_of_the_last_row_gives_back_another_fraction():
    # A +1 in row N changes moment N, and so only the last weight given
    # back, beta_20, value 39.
    frac = JFraction(*map(parse_index_poly, CERTIFIED["const-face"]))
    rows = frac.rows(40)
    rows[40][20] += 1
    assert _first_wrong_level(frac, rows) == 39


# -- the shape routes of JFraction.rows against the walk ------------------------

I = IndexPoly.index()
weights = polys(2, [0, 1, 2])  # signed, rational and y-dependent, zero included
nonzero = weights.map(lambda p: p or MultiPoly.const(1))
# alpha(1) = beta(2) = 0: the fraction stops at level 1, whatever its other terms.
level_one = st.builds(
    lambda a, b, e, g: JFraction((-I + 1) * a + (I * I - I) * e, (-I + 2) * b + (I * I - 2 * I) * g),
    weights, weights, weights, weights,
)
hermite = st.builds(lambda a, b: JFraction(IndexPoly.constant(a), I * b), weights, weights)
level_independent = st.builds(lambda a, b: JFraction(IndexPoly.constant(a), IndexPoly.constant(b)), weights, weights)
near_misses = st.one_of(
    st.builds(lambda a, b, d: JFraction((-I + 1) * a + d, (-I + 2) * b), weights, weights, nonzero),  # alpha(1) = d
    st.builds(lambda a, b, c: JFraction(IndexPoly.constant(a), I * b + c), weights, weights, nonzero),  # beta(0) = c
    st.builds(lambda a, b, d: JFraction(IndexPoly.constant(a), I * b + I * I * d), weights, weights, nonzero),
    st.builds(lambda a, b, d: JFraction(a + I * d, IndexPoly.constant(b)), weights, nonzero, nonzero),  # alpha has i
)


@given(st.one_of(level_one, hermite, level_independent, near_misses), st.integers(0, 10))
@example(JFraction(IndexPoly.constant(0), I), 6)  # the aerated double factorials
@example(JFraction(IndexPoly.constant(1), IndexPoly.constant(1)), 10)  # the Motzkin numbers
@example(JFraction(I + 1, IndexPoly.constant(Y)), 6)  # level 1 weighs 2, not 1
@example(JFraction(IndexPoly.constant(Y), I * R + 1), 6)  # beta(0) = 1: no Hermite fraction
@example(JFraction(-I + 1, (-I + 2) * (R * Y)), 6)  # the ordinary family's gamma fraction
# Sparse weights of high degree in r: rows on MultiPoly.
@example(JFraction(IndexPoly.constant(Y - 3), I * (2**64 * R - R**30)), 12)
@example(JFraction((-I + 1) * (R**40 + 1), (-I + 2) * (Fraction(1, 3) * R * Y - 2**70 * R**33)), 12)
# Dense rows of high degree in r: packed entries of more than 64 slots.
@example(JFraction(IndexPoly.constant(Y - 3), I * (2**64 * R**3 - R**4)), 34)
@example(JFraction((-I + 1) * (R**3 + 1), (-I + 2) * (R * Y - 2**70 * R**2)), 24)
def test_rows_match_the_walk(frac, order):
    assert [typed_all(row) for row in frac.rows(order)] == typed_rows(frac.expand(order))


# Levels in i and weights i*b + i^2*d: a walk, whose weights vanish at any
# level k = -b/d.
walks = st.builds(lambda a, b, c, d: JFraction(a + I * c, I * b + I * I * d), weights, weights, nonzero, weights)


@settings(max_examples=30, deadline=None)
@given(st.one_of(level_one, hermite, level_independent, walks), st.integers(8, 16))
@example(JFraction(parse_index_poly("1/2+y"), parse_index_poly("1/3*i*r*y")), 16)  # rational weights
@example(JFraction(parse_index_poly("1+i"), parse_index_poly("i*(3-i)*y")), 16)  # a walk with beta_3 = 0
def test_the_rows_of_drawn_fractions_give_back_their_fraction(frac, order):
    # Row n of the cleared fraction (D alpha; D^2 beta) is D^n times row n,
    # so its moments are ints.  Where the weight beta_(k+1) vanishes at the
    # Kronecker point, the fraction stops at level k there, and its moments
    # obey its convergent; elsewhere they give back every level and weight.
    # A +1 in row N breaks either.
    den = frac.plan(order).den
    cleared = JFraction(frac.alpha * den, frac.beta * den**2)

    def certified(rows):
        own = _at_kronecker_point(cleared, rows)[1]
        zero = next((j for j in range(1, order, 2) if not own[j]), None)
        return _first_wrong_level(cleared, rows) is None if zero is None else _finite_fraction_holds(cleared, rows, zero // 2)

    rows = [[tidy(e * den**n) for e in row] for n, row in enumerate(frac.rows(order))]
    assert certified(rows)
    rows[order][-1] += 1
    assert not certified(rows)


# -- the exponential class against its Riordan recurrences ------------------------


def _exponential_moments(frac, size_n):
    """m_0..m_size_n of a fraction of the exponential class, alpha(i) =
    z0 + a1 i and beta(i) = i (z1 + a2 (i - 1)), on MultiPoly and with no
    division, sharing no code with the walk.  Its tridiagonal matrix is the
    production matrix of the exponential Riordan array [g, f] with f' = 1 +
    a1 f + a2 f^2 and g' = g (z0 + z1 f), whose column 0 holds the moments
    (Deutsch, Ferrari and Rinaldi 2009; Barry 2011).  On F_n and G_n, the
    coefficients of x^n/n! of f and g: F_1 = 1, F_(n+1) = a1 F_n + a2
    sum_(k=1..n-1) C(n,k) F_k F_(n-k), G_0 = 1, G_(n+1) = z0 G_n + z1
    sum_(k=1..n) C(n,k) F_k G_(n-k), and m_n = G_n."""
    z0, a1, *above = (*frac.alpha.coeffs, 0, 0)
    b0, b, d, *beyond = (*frac.beta.coeffs, 0, 0, 0)  # beta = b i + d i^2
    assert not (any(above) or any(beyond) or b0), f"{frac} is not of the exponential class"
    z1, a2 = b + d, d
    f, g = [MultiPoly(), MultiPoly.const(1)], [MultiPoly.const(1)]
    for n in range(1, size_n):
        f.append(a1 * f[n] + a2 * sum((comb(n, k) * f[k] * f[n - k] for k in range(1, n)), MultiPoly()))
    for n in range(size_n):
        g.append(z0 * g[n] + z1 * sum((comb(n, k) * f[k] * g[n - k] for k in range(1, n + 1)), MultiPoly()))
    return g


EXPONENTIAL_CLASS = {  # alpha, beta: the certified fractions of the class, and three walks on MultiPoly
    **{name: CERTIFIED[name] for name in ("exp-face", "exp-h", "exp-gamma", "perm-face", "perm-gamma")},
    **{f"permutahedron {which}": CERTIFIED[f"permutahedron {which}"] for which in ("gamma", "h", "f")},
    "bold-face": ("(i+1)*(2*y+1)", "i*(i+1)*r*y*(y+1)"),
    "bold-shifted": ("i+2*y+1", "i*r*y*(y+1)"),
    "signed": ("3*i-2*y", "i*(5*i*r-7*y+1)"),
}
EXPONENTIAL_N = 26  # all eleven take about 0.36 s, bold-face half of it, on a 2-core x86-64 host


@pytest.mark.parametrize("alpha, beta", EXPONENTIAL_CLASS.values(), ids=list(EXPONENTIAL_CLASS))
def test_the_exponential_class_matches_its_riordan_recurrences(alpha, beta):
    # Production takes the Hermite recurrence, the y-packed walk or the
    # MultiPoly walk, whose rows are JFraction.expand's; the recurrences
    # share no code with any of them.  A +1 in one cell fails.
    frac = JFraction(parse_index_poly(alpha), parse_index_poly(beta))
    want, rows = typed_rows(_exponential_moments(frac, EXPONENTIAL_N)), frac.rows(EXPONENTIAL_N)
    assert [typed_all(row) for row in rows] == want
    rows[EXPONENTIAL_N][-1] += 1
    assert [typed_all(row) for row in rows] != want


@given(st.builds(lambda a, c, b, d: JFraction(a + I * c, I * b + I * I * d), weights, weights, weights, weights), st.integers(0, 12))
@settings(max_examples=30)
def test_drawn_fractions_of_the_exponential_class_match_their_riordan_recurrences(frac, size_n):
    assert [typed_all(row) for row in frac.rows(size_n)] == typed_rows(_exponential_moments(frac, size_n))


EXP_R = family_fractions(FamilySpec(Kind.EXPONENTIAL, R))
ORD_R = family_fractions(FamilySpec(Kind.ORDINARY, R))
PACKING = {  # fraction, order, whether its rows run packed
    "sparse hermite": (JFraction(IndexPoly.constant(1), I * (2**64 * R - R**30)), 40, False),
    "sparse level one": (JFraction((-I + 1) * (R**40 + 1), (-I + 2) * (R * Y - 2**70 * R**33)), 12, False),
    "exponential gamma": (EXP_R.gamma, 16, False),  # one term per y-coefficient
    "ordinary gamma": (ORD_R.gamma, 16, False),
    "wide slots": (JFraction(IndexPoly.constant(1), I * (2**1000 * R + R**2)), 12, False),
    "exponential h": (EXP_R.h, 16, True),
    "ordinary f": (ORD_R.f, 16, True),
    "dense hermite": (JFraction(IndexPoly.constant(1), I * (2**64 * R**3 - R**4)), 34, True),
    "rational hermite": (JFraction(IndexPoly.constant(Fraction(1, 2) * Y + 1), I * (Fraction(1, 3) * R * Y)), 16, True),
    "sparse free of i": (JFraction(IndexPoly.constant(1), IndexPoly.constant(2**64 * R - R**30)), 40, False),
    "const-face": (JFraction(IndexPoly.constant(2 * Y + 1), IndexPoly.constant(R * Y * (Y + 1))), 16, True),
}


@pytest.mark.parametrize("frac, order, packed", PACKING.values(), ids=list(PACKING))
def test_rows_pack_only_dense_rows_of_narrow_slots(frac, order, packed):
    assert frac.plan(order).layout == ("r-packed" if packed else "MultiPoly")
    assert [typed_all(row) for row in frac.rows(order)] == typed_rows(frac.expand(order))


Y_PACKED = [
    name for name, weights in CERTIFIED.items() if JFraction(*map(parse_index_poly, weights)).plan(30).layout == "y-packed"
]


@pytest.mark.parametrize("name", Y_PACKED)
def test_a_y_packed_walk_reads_the_rows_of_its_series(name):
    # The rows of every fraction of the decks and polytopes that walks
    # y-packed, read from the walk's digits under its own plan, against
    # the oracle's series.
    frac = JFraction(*map(parse_index_poly, CERTIFIED[name]))
    plan = frac.plan(30)
    assert plan.engine == "walk"
    assert [typed_all(row) for row in walk.rows(frac, 30, plan)] == typed_rows(frac.expand(30))


def test_a_rational_fraction_walks_on_packed_ints():
    # rows clears the common denominator, 6, so these rows walk on packed
    # ints, where the oracle's expansion walks on Fraction coefficients.
    frac = JFraction((I + 1) * (Fraction(1, 2) + Y), I * (I + 1) * (Fraction(1, 3) * Y * (Y + 1)))
    plan = frac.plan(20)
    assert (plan.engine, plan.layout, plan.den) == ("walk", "y-packed", 6)
    assert [typed_all(row) for row in frac.rows(20)] == typed_rows(frac.expand(20))


TOO_NARROW = {  # a fraction whose rows hold coefficients above 127, and its engine
    "r-packed rows": (JFraction(IndexPoly.constant(2 * Y + 1), IndexPoly.constant(R * Y * (Y + 1))), "level-independent"),
    "y-packed walk": (JFraction((I + 1) * (2 * Y + 1), I * (I + 1) * Y * (Y + 1)), "walk"),
}


@pytest.mark.parametrize("frac, engine", TOO_NARROW.values(), ids=list(TOO_NARROW))
def test_the_engines_take_their_width_from_the_plan(frac, engine):
    # Each engine packs at the plan's width and decides nothing itself: in
    # slots of 8 bits the rows' coefficients wrap, and on MultiPoly they
    # come out whole.
    plan = frac.plan(12)
    assert plan.engine == engine and plan.width > 8
    rows = [typed_all(row) for row in frac.rows(12)]
    assert [typed_all(row) for row in frac.rows(12, plan=plan._replace(width=8))] != rows
    assert [typed_all(row) for row in frac.rows(12, plan=plan._replace(width=None))] == rows == typed_rows(frac.expand(12))


def _cli_rows(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


@pytest.mark.parametrize("flavor", [k.value for k in FLAVORS])
@pytest.mark.parametrize("which, reversed_form", [("gamma", False), ("h", False), ("f", False), ("f", True)])
def test_jf_of_a_family_fraction_prints_the_rows_show_prints(capsys, flavor, which, reversed_form):
    # The fraction reaches jf as IndexPoly.__str__ renders it.
    frac = getattr(family_fractions(FamilySpec(Kind(flavor), R)), which)
    if reversed_form:
        frac = frac.reversed()
    show = _cli_rows(capsys, ["show", "--flavor", flavor, "--which", which, "--N", "12"] + ["--reversed"] * reversed_form)
    for row in show:  # a gamma row is padded to n + 1 entries with zeros
        while len(row) > 1 and row[-1] == 0:
            row.pop()
    assert _cli_rows(capsys, ["jf", "--alpha", str(frac.alpha), "--beta", str(frac.beta), "--N", "12"]) == show


# The plan of each request kind that the benchmark decks send, at each --N
# they send it (symbolic show 20-36, jf 10-16, the named polytopes 14-22),
# as the pair (engine, layout) of each fraction the request expands: each
# member of a show's family, and a jf's one fraction.  The simplex and the
# hypercube, which no deck sends, are pinned at N = 16.
DECK_N = {"show": range(20, 37), "jf": range(10, 17), "named": range(14, 23), "other": [16]}
DECK_PLANS = {
    # A gamma fraction's rows fill under half their slots: one term per y-coefficient.
    "show ordinary": ("show", FamilySpec(Kind.ORDINARY, R),
                      {"gamma": ("level one", "MultiPoly"), "h": ("level one", "r-packed"), "f": ("level one", "r-packed")}),
    "show exponential": ("show", FamilySpec(Kind.EXPONENTIAL, R),
                         {"gamma": ("hermite", "MultiPoly"), "h": ("hermite", "r-packed"), "f": ("hermite", "r-packed")}),
    "show simplex": ("other", "simplex", dict.fromkeys(("gamma", "h", "f"), ("level one", "r-packed"))),
    "show hypercube": ("other", "hypercube", dict.fromkeys(("gamma", "h", "f"), ("level one", "r-packed"))),
    "show associahedron": ("named", "associahedron", dict.fromkeys(("gamma", "h", "f"), ("level-independent", "r-packed"))),
    "show permutahedron": ("named", "permutahedron", dict.fromkeys(("gamma", "h", "f"), ("walk", "y-packed"))),
    **{f"jf {name}": ("jf", (alpha, beta), {"jf": plan}) for name, (alpha, beta, plan) in JF_TEMPLATES.items()},
}


def _request_fractions(family):
    """The fractions a request expands: a show's family members (as ``show``
    builds them, :func:`member_fraction`), or a jf's (alpha, beta)."""
    if isinstance(family, tuple):
        return {"jf": JFraction(*map(parse_index_poly, family))}
    return {which: member_fraction(family, which) for which in ("gamma", "h", "f")}


@pytest.mark.parametrize("deck, family, plans", DECK_PLANS.values(), ids=list(DECK_PLANS))
def test_each_request_takes_the_walk_only_where_no_shape_fits(deck, family, plans):
    for which, frac in _request_fractions(family).items():
        assert {(plan.engine, plan.layout) for plan in map(frac.plan, DECK_N[deck])} == {plans[which]}, which


def test_each_engine_and_layout_has_a_request_of_the_decks():
    branches = {("walk" if engine == "walk" else "rows", layout)
                for deck, _, plans in DECK_PLANS.values() if deck != "other" for engine, layout in plans.values()}
    assert branches == {("rows", "r-packed"), ("rows", "MultiPoly"), ("walk", "y-packed"), ("walk", "MultiPoly")}


# -- specialising r commutes with every engine ----------------------------------

# A weight with r and the same weight at a value of r usually take different
# engines (a MultiPoly walk against a y-packed one, r-packed rows against
# plain-int rows), so each case checks two code paths against each other.
# At r = 0 const-face's beta is empty, and its rows are the powers of alpha.
SPECIALISED = {  # alpha, beta with r, N
    "exp-face": ("2*y+1", "i*r*y*(y+1)", 100),  # Hermite rows
    "const-face": ("2*y+1", "r*y*(y+1)", 40),  # rows of a fraction free of i
    "perm-gamma": ("i+1", "i*(i+1)*r*y", 100),  # the MultiPoly walk, as are the rest
    "perm-face with r": ("(i+1)*(2*y+1)", "i*(i+1)*r*y*(y+1)", 40),
    "shifted exp-face": ("i+2*y+1", "i*r*y*(y+1)", 40),
}


@functools.lru_cache(maxsize=1)  # the values of one fraction are tested one after the other
def _symbolic_rows(alpha, beta, size_n):
    return JFraction(parse_index_poly(alpha), parse_index_poly(beta)).rows(size_n)


def _at(rows, value) -> list:
    """Symbolic rows at r = value (``at_r``), typed, each row up to its
    last nonzero entry, as ``JFraction.rows`` gives them."""
    out = []
    for row in at_r(rows, value):
        while len(row) > 1 and not row[-1]:
            row.pop()
        out.append(typed_all(row))
    return out


@pytest.mark.parametrize("value", [-3, 0, 2**64], ids=["-3", "0", "2^64"])
@pytest.mark.parametrize("alpha, beta, size_n", SPECIALISED.values(), ids=list(SPECIALISED))
def test_specialising_r_commutes_with_every_engine(alpha, beta, size_n, value):
    at = JFraction(*(parse_index_poly(text.replace("r", f"({value})")) for text in (alpha, beta)))
    assert [typed_all(row) for row in at.rows(size_n)] == _at(_symbolic_rows(alpha, beta, size_n), value)


def _in_r(powers, scale=1):
    """Integral weights in the powers of r given and y^0..y^2."""
    terms = st.tuples(st.sampled_from(powers), st.integers(0, 2))
    return st.dictionaries(terms, st.integers(-5, 5).map(scale.__mul__), min_size=1, max_size=4).map(MultiPoly)


def _specialisable(w):
    """Fractions of each engine's shape, their weights drawn from w."""
    return st.one_of(
        st.builds(lambda a, b: JFraction(IndexPoly.constant(a), I * b), w, w),  # Hermite rows
        st.builds(lambda a, b: JFraction((-I + 1) * a, (-I + 2) * b), w, w),  # stops at level 1
        st.builds(lambda a, b: JFraction(IndexPoly.constant(a), IndexPoly.constant(b)), w, w),  # levels free of i
        st.builds(lambda a, b, c: JFraction(a + I * c, I * (I + 1) * b), w, w, w),  # walks
    )


# Weights in r on each side of the engines' thresholds: dense and small
# (rows packed), sparse (rows on MultiPoly by density) and wide (rows on
# MultiPoly by width).  At a value of r the walk runs packed, or on
# MultiPoly past MAX_WIDTH (r = 2^2100); at r = 0 a weight that holds r in
# every term vanishes, as const-face's beta does.
specialisable = st.one_of(_specialisable(_in_r([0, 1, 2])), _specialisable(_in_r([0, 4])), _specialisable(_in_r([0, 1], 2**1000)))


@given(specialisable, st.sampled_from([0, -3, 2**64, 2**2100]), st.integers(0, 12))
@example(JFraction(IndexPoly.constant(2 * Y + 1), IndexPoly.constant(R * Y * (Y + 1))), 0, 12)  # const-face
@example(JFraction(I + 1, I * (I + 1) * R * Y), 2**2100, 12)  # perm-gamma
@settings(max_examples=30)  # 0.1-0.4 s on a 2-core x86-64 host
def test_specialising_r_commutes_with_every_engine_on_drawn_fractions(frac, value, size_n):
    at = JFraction(*(IndexPoly.from_coeffs([c.substitute(r=value) for c in p.coeffs]) for p in frac))
    assert [typed_all(row) for row in at.rows(size_n)] == _at(frac.rows(size_n), value)


# -- the plan's bound -------------------------------------------------------------


def _bound_covers_the_rows(frac, order):
    """Whether the plan's bound is an int at least every |coefficient| of
    the rows it plans, in r and y alike."""
    plan = frac.plan(order)
    rows = frac.rows(order, plan=plan)
    return type(plan.bound) is int and all(abs(c) <= plan.bound for row in rows for e in row for _, c in MultiPoly.coerce(e).items())


@pytest.mark.parametrize("alpha, beta", CERTIFIED.values(), ids=list(CERTIFIED))
def test_every_integral_plan_bounds_its_rows(alpha, beta):
    # The bound is what a request can be refused by before any row is
    # computed, so every engine and layout carries one, the MultiPoly walk
    # of weights in r (perm-gamma) too.
    assert _bound_covers_the_rows(JFraction(parse_index_poly(alpha), parse_index_poly(beta)), 30)


@given(specialisable, st.integers(0, 12))
@settings(max_examples=30)
def test_every_integral_plan_bounds_its_rows_on_drawn_fractions(frac, size_n):
    assert _bound_covers_the_rows(frac, size_n)

"""The engines of JFraction.rows against the Motzkin walk (JFraction.expand)
they replace: on hypothesis-drawn fractions of each shape and near misses,
on the family fractions, and through the CLI, where ``jf`` of a family's
fraction prints the rows ``show`` prints; a Kronecker certificate of the
symbolic triangles at large N against the Riordan route; and a pin of which
requests take the walk."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from canonical import typed_all
from riordan.algebra import MultiPoly, R, Y
from riordan.arrays import Kind, triangle_from_series
from riordan.cli import main
from riordan.cold import dense_family_triple
from riordan.families import FamilySpec, family_fractions, family_triple, family_matrix
from riordan import jfraction
from riordan.jfraction import IndexPoly, JFraction
from riordan.series import tidy

FLAVORS = (Kind.ORDINARY, Kind.EXPONENTIAL)


def oracle_rows(spec, which, size_n):
    """The walk on the family's fraction."""
    return triangle_from_series(getattr(family_fractions(spec), which).expand(size_n))


def outcome(build):
    """A triangle with the type of every entry, or the exception its build raised."""
    try:
        result = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return result, [type(e) for row in result.rows for e in row]


coefficients = st.integers(-5, 5) | st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def polys(r_degree, y_degrees):
    terms = st.tuples(st.integers(0, r_degree), st.sampled_from(y_degrees))
    return st.dictionaries(terms, coefficients, max_size=4).map(MultiPoly)


EXTREME_R = [2**1024 * R - R**32, Fraction(1, 3**40) * R**2 + 1]
r_values = st.sampled_from([R, -2, -1, 0, 3, 2 - 3 * R, R**2 - R, Fraction(1, 2) * R, Y, Y**2, *EXTREME_R]) | polys(2, [0])


@given(st.sampled_from(FLAVORS), st.sampled_from(["gamma", "h", "f"]), r_values, st.integers(0, 12))
@example(Kind.EXPONENTIAL, "f", EXTREME_R[0], 8)
@example(Kind.ORDINARY, "h", EXTREME_R[1], 8)
def test_row_recurrence_matches_its_multipoly_loop(flavor, which, r, size):
    spec = FamilySpec(flavor, r)
    assert outcome(lambda: family_matrix(spec, which, size)) == outcome(lambda: oracle_rows(spec, which, size))


@pytest.mark.parametrize("weight", [1, -1, 127, -128, 128, 255, 256, 2**64 - 1, 2**64, -(2**64)])
@pytest.mark.parametrize("scale", [1, R], ids=["int", "poly"])
def test_a_slot_holds_a_coefficient_as_large_as_the_bound(weight, scale):
    # Row 2 of the gamma triangle is 1 + ry: its cell w r is as large as the
    # bound 1 + |w| allows.
    r = weight * scale
    assert family_matrix(FamilySpec(Kind.ORDINARY, r), "gamma", 2).rows[2] == (1, r, 0)


# The exponential Riordan route runs on Fraction coefficients: at N = 100
# it alone takes about 3 s, so that flavour is certified at N = 70.
CERTIFIED_N = {Kind.ORDINARY: 100, Kind.EXPONENTIAL: 70}


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


# The walk at large order against the row recurrence, a different algorithm
# with its own slot bound, on each flavour's gamma, h and f fractions.
MOTZKIN_N = {Kind.EXPONENTIAL: {"gamma": 100, "h": 60, "f": 60}, Kind.ORDINARY: {"gamma": 40, "h": 40, "f": 40}}


@pytest.mark.parametrize("which", ["f", "gamma", "h"])
def test_motzkin_walk_matches_the_row_recurrence_at_large_n(which):
    for flavor, sizes in MOTZKIN_N.items():
        spec = FamilySpec(flavor, R)
        walk = getattr(family_fractions(spec), which).expand(sizes[which])
        assert triangle_from_series(walk) == family_matrix(spec, which, sizes[which])


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
near_misses = st.one_of(
    st.builds(lambda a, b, d: JFraction((-I + 1) * a + d, (-I + 2) * b), weights, weights, nonzero),  # alpha(1) = d
    st.builds(lambda a, b, c: JFraction(IndexPoly.constant(a), I * b + c), weights, weights, nonzero),  # beta(0) = c
    st.builds(lambda a, b, d: JFraction(IndexPoly.constant(a), I * b + I * I * d), weights, weights, nonzero),
)


def walk_rows(frac, order):
    return [[tidy(c) for c in MultiPoly.coerce(s).y_coefficients()] for s in frac.expand(order)]


@given(st.one_of(level_one, hermite, near_misses), st.integers(0, 10))
@example(JFraction(IndexPoly.constant(0), I), 6)  # the aerated double factorials
@example(JFraction(-I + 1, (-I + 2) * (R * Y)), 6)  # the ordinary family's gamma fraction
# Sparse weights of high degree in r: rows on MultiPoly.
@example(JFraction(IndexPoly.constant(Y - 3), I * (2**64 * R - R**30)), 12)
@example(JFraction((-I + 1) * (R**40 + 1), (-I + 2) * (Fraction(1, 3) * R * Y - 2**70 * R**33)), 12)
# Dense rows of high degree in r: packed entries of more than 64 slots.
@example(JFraction(IndexPoly.constant(Y - 3), I * (2**64 * R**3 - R**4)), 34)
@example(JFraction((-I + 1) * (R**3 + 1), (-I + 2) * (R * Y - 2**70 * R**2)), 24)
def test_rows_match_the_walk(frac, order):
    assert [typed_all(row) for row in frac.rows(order)] == [typed_all(row) for row in walk_rows(frac, order)]


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
}


@pytest.mark.parametrize("frac, order, packed", PACKING.values(), ids=list(PACKING))
def test_rows_pack_only_dense_rows_of_narrow_slots(monkeypatch, frac, order, packed):
    calls = []
    pack = jfraction._pack
    monkeypatch.setattr(jfraction, "_pack", lambda *args: calls.append(1) or pack(*args))
    assert frac.rows(order) == walk_rows(frac, order)
    assert bool(calls) == packed


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


JF_TEMPLATES = {
    "exp-face": ("2*y+1", "i*r*y*(y+1)"),
    "exp-h": ("y+1", "i*r*y"),
    "exp-gamma": ("1", "i*r*y"),
    "perm-face": ("(i+1)*(2*y+1)", "i*(i+1)*y*(y+1)"),
    "const-face": ("2*y+1", "r*y*(y+1)"),
}
WALKS = {  # JFraction.expand calls per request; the benchmark's sizes cannot tell them apart
    **{f"show {family}": (["show", "--which", "f", "--N", "16"] + extra, 0) for family, extra in (
        ("ordinary", []), ("exponential", ["--flavor", "exponential"]),
        ("simplex", ["--family", "simplex"]), ("hypercube", ["--family", "hypercube"]))},
    **{f"show {name}": (["show", "--family", name, "--which", "f", "--N", "16"], 1) for name in ("associahedron", "permutahedron")},
    **{f"jf {name}": (["jf", "--alpha", a, "--beta", b, "--N", "16"], int(not name.startswith("exp"))) for name, (a, b) in JF_TEMPLATES.items()},
}


@pytest.mark.parametrize("argv, walks", WALKS.values(), ids=list(WALKS))
def test_each_request_takes_the_walk_only_where_no_shape_fits(capsys, monkeypatch, argv, walks):
    calls = []
    walk = JFraction.expand
    monkeypatch.setattr(JFraction, "expand", lambda frac, order: calls.append(order) or walk(frac, order))
    assert main(argv) == 0
    assert len(calls) == walks

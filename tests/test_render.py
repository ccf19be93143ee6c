"""The cells that ``show`` and ``jf`` print: the digit writer, the cells of
every engine's rows, and the CSV writer."""

import csv
import io
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from canonical import typed_all
from riordan.algebra import MultiPoly, R, Y, _unpack, tidy
from riordan.families import POLYTOPE_NAMES, FamilySpec, Kind, family_matrix, member_fraction
from riordan.jfraction import IndexPoly, JFraction
from riordan.render import _matrix_doc, _write, cells, render_csv


@st.composite
def packed(draw):
    """(value, width): a polynomial in r of 1-130 balanced base-2^width
    digits, signed and with zero slots, packed at r = 2^width."""
    width = 8 * draw(st.integers(1, 256))
    half = 1 << (width - 1)
    small = st.sampled_from([0, 0, 1, -1]) | st.integers(-3, 3)
    digit = small | st.integers(-half, half - 1) | st.sampled_from([-half, half - 1])
    digits = draw(st.lists(digit, min_size=1, max_size=130))
    return sum(d << width * i for i, d in enumerate(digits)), width


@given(packed())
@example((-(2**7), 8))  # a single slot, a constant
@example((-(2**8) + 1, 8))  # a negative top slot over a positive one: -r + 1
@example((2**16 - 1, 8))  # r^2 - 1
@example((-(2**(8 * 64)) + 2**8, 8))  # a negative top slot over zero slots
@example((sum(-1 << 16 * i for i in range(0, 400, 2)), 16))  # the byte read, every other slot zero
# The last slot counts of _digits's loop and the first of its byte read
# (slots^2 * width > 2^21), signed and not.
@example((sum(3 << 344 * i for i in range(78)), 344))
@example((sum(-3 << 344 * i for i in range(79)), 344))
@example((sum((-1) ** i << 16 * i for i in range(362)), 16))
@example((sum(1 << 16 * i for i in range(363)), 16))
@example((sum(-(2**2040) << 2048 * i for i in range(32)), 2048))
@example((sum(2**2040 - i << 2048 * i for i in range(33)), 2048))
def test_write_is_the_text_of_the_unpacked_polynomial(value_width):
    value, width = value_width
    poly, cell = tidy(_unpack(value, width)), _write(value, width)
    if isinstance(poly, MultiPoly):
        assert cell == str(poly)
    else:  # a constant stays an int, so JSON and CSV still print it as a number
        assert type(cell) is int and cell == poly


def as_cells(rows):
    """Each entry as a cell should hold it: a polynomial as its text."""
    return [[str(e) if isinstance(e, MultiPoly) else e for e in row] for row in rows]


I = IndexPoly.index()
FAMILIES = [FamilySpec(Kind.ORDINARY, R), FamilySpec(Kind.EXPONENTIAL, R), *POLYTOPE_NAMES]
# The family fractions take both recurrence shapes, packed or on MultiPoly;
# the polytopes' own fractions take the walk.
FRACTIONS = {
    **{f"{getattr(family, 'flavor', family)} {which}": member_fraction(family, which)
       for family in FAMILIES for which in ("gamma", "h", "f")},
    "sparse hermite": JFraction(IndexPoly.constant(1), I * (2**64 * R - R**30)),  # MultiPoly by density
    "wide slots": JFraction(IndexPoly.constant(1), I * (2**1000 * R + R**2)),  # MultiPoly by width
    "dense hermite": JFraction(IndexPoly.constant(Y - 3), I * (2**64 * R**3 - R**4)),  # more than 64 slots
    "rational": JFraction(IndexPoly.constant(Fraction(1, 2) + Y), I * (Fraction(1, 3) * R * Y)),  # D != 1
    "walk in r": JFraction(IndexPoly.constant(2 * Y + 1), IndexPoly.constant(R * Y * (Y + 1))),
}


@pytest.mark.parametrize("frac", FRACTIONS.values(), ids=list(FRACTIONS))
@pytest.mark.parametrize("reversed_form", [False, True], ids=["plain", "reversed"])
def test_cells_are_the_text_of_the_rows(frac, reversed_form):
    frac = frac.reversed() if reversed_form else frac
    expected = [typed_all(row) for row in as_cells(frac.rows(24))]
    assert [typed_all(row) for row in cells(frac.rows(24, _write))] == expected


SHOWN = [("parametric", flavor, r) for flavor in ("ordinary", "exponential") for r in ("r", -1, 3, 2**60)]
SHOWN += [(name, None, None) for name in POLYTOPE_NAMES]


@pytest.mark.parametrize("family, flavor, r", SHOWN, ids=[" ".join(map(str, f)) for f in SHOWN])
@pytest.mark.parametrize("which", ["gamma", "h", "f"])
@pytest.mark.parametrize("reversed_form", [False, True], ids=["plain", "reversed"])
def test_show_prints_the_cells_of_its_triangle(family, flavor, r, which, reversed_form):
    spec = FamilySpec(Kind(flavor), R if r == "r" else r) if flavor else family
    matrix = family_matrix(spec, which, 20)
    rows = (matrix.reversed() if reversed_form else matrix).rows
    args = SimpleNamespace(family=family, flavor=flavor, r=r, which=which, N=20, reversed=reversed_form)
    assert [typed_all(row) for row in _matrix_doc(args).rows] == [typed_all(row) for row in as_cells(rows)]


SHOWABLE = {f"{flavor} {r}": FamilySpec(Kind(flavor), R if r == "r" else r)
            for flavor in ("ordinary", "exponential") for r in ("r", -7, -1, 0, 3, 2**60)}
SHOWABLE.update({name: name for name in POLYTOPE_NAMES})


@pytest.mark.parametrize("family", SHOWABLE.values(), ids=list(SHOWABLE))
@pytest.mark.parametrize("which", ["gamma", "h", "f"])
def test_every_fraction_show_can_request_is_integral(family, which):
    # _matrix_doc writes the rows of a show's fraction straight into text,
    # which only an integral fraction's rows allow: --r takes only integers.
    assert member_fraction(family, which).plan(8).den == 1


@given(st.lists(st.lists(st.integers(-(10**30), 10**30) | st.text('ab,"r*^ -\n', max_size=6), min_size=1), min_size=1))
@example([[1, "r", 'say "r"', "a,b", "", -3]])
def test_csv_is_what_the_csv_module_writes(rows):
    buffer = io.StringIO()
    csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n").writerows(rows)
    assert render_csv(rows) == buffer.getvalue()

"""OEIS triangle fixtures, their checks, and the ``oeis-check`` subcommand.

The embedded fixtures are the independent oracle for every sequence-level
check in this package: each stores the leading rows of an OEIS triangle
verbatim, together with its offset (the OEIS index of the first stored row)
and explicit row lengths, since several gamma-triangles are ragged (row n of
A055151 has n//2 + 1 entries, not n + 1).  Each row is stored as OEIS reads
it, row by row; which of those triangles a construction gives read
backwards is said once, in :data:`FIXTURE_SOURCES`.  A001147 is a plain
sequence and is stored with one value per row; its aerated form (zeros
interleaved) is produced by the caller.

Each fixture has one check, :func:`fixture_report`, which regenerates it
from its construction.  A triangle's check compares the rows of its
source's J-fraction, shaped as ``show`` shapes them
(:func:`riordan.jfraction._triangle_rows`), so it builds no triangle and
loads no :mod:`riordan.arrays`; A001147's rows are one constant each.
``oeis-check`` runs those checks here, without the check registry of
:mod:`riordan.verify`, which wraps the same functions as the oeis suite.
The checks import the families and fractions when they run, so
``fetch-bfile``, which reads A-numbers with :func:`_normalize_anumber`,
loads nothing more of the package than this module.  The b-file parser and
the cached fetcher live in :mod:`riordan.bfile`, which only ``fetch-bfile``
loads.
"""

from collections import namedtuple
from functools import cache

from . import Frozen
from .algebra import MultiPoly, tidy


class SymbolicEntries(ValueError):
    """Triangle comparison needs fully numeric entries."""


class TriangleFixture(Frozen):
    """Leading rows of an OEIS triangle, flat values plus reconstruction data."""

    __slots__ = ("anumber", "description", "offset", "row_lengths", "values")

    def __init__(
        self,
        anumber: str,
        description: str,
        offset: int,
        row_lengths: tuple[int, ...],
        values: tuple[int, ...],
    ):
        if not values:
            raise ValueError("fixture values must be non-empty")
        if sum(row_lengths) != len(values):
            raise ValueError(f"{anumber}: row lengths do not add up")
        self._init(
            anumber=anumber,
            description=description,
            offset=offset,
            row_lengths=row_lengths,
            values=values,
        )

    def rows(self) -> list[list[int]]:
        out, pos = [], 0
        for length in self.row_lengths:
            out.append(list(self.values[pos : pos + length]))
            pos += length
        return out


class CheckReport(namedtuple("CheckReport", "anumber rows_compared entries_matched mismatch", defaults=(None,))):
    """Outcome of comparing generated rows against a fixture: its A-number,
    the rows compared, the entries matched and the first mismatch, a tuple
    (n, k, got, want), or None (the default) where every entry matched."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    def message(self) -> str:
        if self.ok:
            return (
                f"{self.anumber}: {self.entries_matched} entries over "
                f"{self.rows_compared} rows match"
            )
        n, k, got, want = self.mismatch
        return f"{self.anumber}: mismatch at row {n}, column {k}: got {got}, want {want}"


def _plain_rows(triangle) -> list[list]:
    """The rows of a LowerTriMatrix, or a list of rows, each entry as an int
    or a Fraction."""
    rows = [[tidy(e) for e in row] for row in getattr(triangle, "rows", triangle)]
    symbolic = next((e for row in rows for e in row if isinstance(e, MultiPoly)), None)
    if symbolic is not None:
        raise SymbolicEntries(f"symbolic entry {symbolic}; specialize first")
    return rows


def check_triangle(triangle, fixture: TriangleFixture) -> CheckReport:
    """Compare generated rows (row 0 first) against the fixture's rows.

    Generated row j is aligned with the fixture's j-th stored row (OEIS row
    j + offset).  Fixture rows may be shorter than the generated ones; the
    surplus generated entries must then be zero.  A generated row shorter
    than the fixture's is compared entry by entry first, then reported
    with its first missing entry "absent".
    """
    got_rows = _plain_rows(triangle)
    want_rows = fixture.rows()
    compared = min(len(got_rows), len(want_rows))
    matched = 0
    for j in range(compared):
        got, want = got_rows[j], want_rows[j]
        for k in range(len(got)):
            expect = want[k] if k < len(want) else 0
            if got[k] != expect:
                return CheckReport(fixture.anumber, compared, matched, (j, k, got[k], expect))
            matched += 1
        if len(want) > len(got):
            return CheckReport(fixture.anumber, compared, matched, (j, len(got), "absent", want[len(got)]))
    return CheckReport(fixture.anumber, compared, matched)


def check_sequence(values, fixture: TriangleFixture) -> CheckReport:
    """Compare a flat value list against a sequence-shaped fixture."""
    want = fixture.values
    compared = min(len(values), len(want))
    for i in range(compared):
        if values[i] != want[i]:
            return CheckReport(fixture.anumber, compared, i, (i, 0, values[i], want[i]))
    return CheckReport(fixture.anumber, compared, compared)


# -- A-numbers ---------------------------------------------------------------


def _normalize_anumber(anumber: str) -> str:
    text = anumber.strip().upper()
    if not (text.startswith("A") and text[1:].isascii() and text[1:].isdigit()):
        raise ValueError(f"not an OEIS A-number: {anumber!r}")
    return "A" + text[1:].zfill(6)


# -- embedded fixtures ---------------------------------------------------------


def _fixture(anumber, description, offset, text):
    """A fixture whose rows are the lines of ``text``, each row's values
    separated by spaces.  Text compiles to one constant, where a nested list
    literal compiles every value: every fixture check request loads this
    module."""
    rows = [line.split() for line in text.strip().splitlines()]
    return TriangleFixture(
        anumber=anumber,
        description=description,
        offset=offset,
        row_lengths=tuple(len(row) for row in rows),
        values=tuple(int(v) for row in rows for v in row),
    )


FIXTURES: dict[str, TriangleFixture] = {
    fx.anumber: fx
    for fx in [
        _fixture(
            "A007318",
            "Pascal's triangle C(n,k)",
            0,
            """
            1
            1 1
            1 2 1
            1 3 3 1
            1 4 6 4 1
            1 5 10 10 5 1
            1 6 15 20 15 6 1
            1 7 21 35 35 21 7 1
            1 8 28 56 70 56 28 8 1
            1 9 36 84 126 126 84 36 9 1
            1 10 45 120 210 252 210 120 45 10 1
            """,
        ),
        _fixture(
            "A135278",
            "face triangle of the simplex: C(n+1, k+1)",
            0,
            """
            1
            2 1
            3 3 1
            4 6 4 1
            5 10 10 5 1
            6 15 20 15 6 1
            7 21 35 35 21 7 1
            8 28 56 70 56 28 8 1
            9 36 84 126 126 84 36 9 1
            10 45 120 210 252 210 120 45 10 1
            """,
        ),
        _fixture(
            "A074909",
            "reversed face triangle of the simplex: C(n+1, k)",
            0,
            """
            1
            1 2
            1 3 3
            1 4 6 4
            1 5 10 10 5
            1 6 15 20 15 6
            1 7 21 35 35 21 7
            1 8 28 56 70 56 28 8
            1 9 36 84 126 126 84 36 9
            1 10 45 120 210 252 210 120 45 10
            """,
        ),
        _fixture(
            "A038207",
            "face triangle of the hypercube: C(n,k) 2^(n-k)",
            0,
            """
            1
            2 1
            4 4 1
            8 12 6 1
            16 32 24 8 1
            32 80 80 40 10 1
            64 192 240 160 60 12 1
            128 448 672 560 280 84 14 1
            256 1024 1792 1792 1120 448 112 16 1
            512 2304 4608 5376 4032 2016 672 144 18 1
            """,
        ),
        _fixture(
            "A013609",
            "reversed face triangle of the hypercube: C(n,k) 2^k",
            0,
            """
            1
            1 2
            1 4 4
            1 6 12 8
            1 8 24 32 16
            1 10 40 80 80 32
            1 12 60 160 240 192 64
            1 14 84 280 560 672 448 128
            1 16 112 448 1120 1792 1792 1024 256
            1 18 144 672 2016 4032 5376 4608 2304 512
            """,
        ),
        _fixture(
            "A001147",
            "double factorials (2n-1)!!; aerate with zeros for the EGF of exp(x^2/2)",
            0,
            """
            1
            1
            3
            15
            105
            945
            10395
            135135
            2027025
            34459425
            654729075
            """,
        ),
        _fixture(
            "A001263",
            "Narayana triangle, h-triangle of the associahedron",
            1,
            """
            1
            1 1
            1 3 1
            1 6 6 1
            1 10 20 10 1
            1 15 50 50 15 1
            1 21 105 175 105 21 1
            1 28 196 490 490 196 28 1
            1 36 336 1176 1764 1176 336 36 1
            1 45 540 2520 5292 5292 2520 540 45 1
            """,
        ),
        _fixture(
            "A008292",
            "Eulerian triangle, h-triangle of the permutahedron",
            1,
            """
            1
            1 1
            1 4 1
            1 11 11 1
            1 26 66 26 1
            1 57 302 302 57 1
            1 120 1191 2416 1191 120 1
            1 247 4293 15619 15619 4293 247 1
            1 502 14608 88234 156190 88234 14608 502 1
            1 1013 47840 455192 1310354 1310354 455192 47840 1013 1
            """,
        ),
        _fixture(
            "A019538",
            "k! S2(n,k), face triangle of the permutahedron",
            1,
            """
            1
            1 2
            1 6 6
            1 14 36 24
            1 30 150 240 120
            1 62 540 1560 1800 720
            1 126 1806 8400 16800 15120 5040
            1 254 5796 40824 126000 191520 141120 40320
            1 510 18150 186480 834120 1905120 2328480 1451520 362880
            """,
        ),
        _fixture(
            "A033282",
            "polygon dissections, face triangle of the type-A associahedron",
            3,
            """
            1
            1 2
            1 5 5
            1 9 21 14
            1 14 56 84 42
            1 20 120 300 330 132
            1 27 225 825 1485 1287 429
            1 35 385 1925 5005 7007 5005 1430
            1 44 616 4004 14014 28028 32032 19448 4862
            """,
        ),
        _fixture(
            "A055151",
            "Motzkin polynomial coefficients, gamma-triangle of the associahedron",
            0,
            """
            1
            1
            1 1
            1 3
            1 6 2
            1 10 10
            1 15 30 5
            1 21 70 35
            1 28 140 140 14
            1 36 252 420 126
            1 45 420 1050 630 42
            """,
        ),
        _fixture(
            "A101280",
            "gamma-triangle of the permutahedron (from Eulerian polynomials)",
            1,
            """
            1
            1
            1 2
            1 8
            1 22 16
            1 52 136
            1 114 720 272
            1 240 3072 3968
            1 494 11616 34304 7936
            1 1004 40776 230144 176896
            """,
        ),
    ]
}


def aerated(values, length: int) -> list[int]:
    """Interleave zeros: v0, 0, v1, 0, ..., truncated to length."""
    out: list[int] = []
    for v in values:
        out.extend((v, 0))
    return out[:length]


# -- regenerating the fixtures ---------------------------------------------------

# Where each embedded fixture comes from: (family, matrix, rows read
# reversed), or None for A001147, the even terms of the aerated double
# factorials.  The order is that of the oeis suite and of ``oeis-check``'s
# lines.  This is the one record of a fixture's orientation.
FIXTURE_SOURCES: dict[str, tuple[str, str, bool] | None] = {
    "A135278": ("simplex", "f", False),
    "A074909": ("simplex", "f", True),
    "A038207": ("hypercube", "f", False),
    "A013609": ("hypercube", "f", True),
    "A007318": ("hypercube", "h", False),
    "A001147": None,
    "A055151": ("associahedron", "gamma", False),
    "A001263": ("associahedron", "h", False),
    "A033282": ("associahedron", "f", False),
    "A101280": ("permutahedron", "gamma", False),
    "A008292": ("permutahedron", "h", False),
    "A019538": ("permutahedron", "f", False),
}


def _triangle_fixture(anumber: str) -> CheckReport:
    """The rows of the fixture's source fraction, sized to the fixture and
    shaped as a triangle stores them (:func:`_triangle_rows`), compared
    against it."""
    from .families import member_fraction
    from .jfraction import _triangle_rows

    family, which, reversed_rows = FIXTURE_SOURCES[anumber]
    rows = _triangle_rows(member_fraction(family, which).rows(len(FIXTURES[anumber].row_lengths) - 1))
    return check_triangle([row[::-1] for row in rows] if reversed_rows else rows, FIXTURES[anumber])


@cache
def _aerated_double_factorials() -> tuple[int, ...]:
    """The rows 0..20 of the J-fraction (0; i), each one constant:
    1, 0, 1, 0, 3, 0, 15, ..."""
    from .jfraction import IndexPoly, JFraction

    return tuple(row[0] for row in JFraction(IndexPoly.constant(0), IndexPoly.index()).rows(20))


def fixture_report(anumber: str) -> CheckReport:
    """The check of one fixture: its rows regenerated from its construction
    (FIXTURE_SOURCES) and compared against it."""
    if FIXTURE_SOURCES[anumber]:
        return _triangle_fixture(anumber)
    return check_sequence(_aerated_double_factorials()[::2], FIXTURES[anumber])


# -- the command line's oeis-check subcommand -------------------------------------


def oeis_check_options():
    return (("anumber", dict(nargs="*", help="A-numbers (default: all fixtures)")),)


def cmd_oeis_check(args) -> int:
    """A-numbers are read as ``fetch-bfile`` reads them: 'a55151' is A055151.
    Text that is no A-number, an A-number without a fixture and one given
    more than once raise ValueError (exit 2); each A-number without a
    fixture is named once, in the order given.  The checks run in the
    order of FIXTURE_SOURCES, one line each: the report's message, or the
    exception of a check that raised, as ``verify oeis`` gives its detail."""
    anumbers = [_normalize_anumber(a) for a in args.anumber] or sorted(FIXTURES)
    unknown = list(dict.fromkeys(a for a in anumbers if a not in FIXTURES))
    if unknown:
        raise ValueError(f"no fixture for {', '.join(unknown)}")
    repeated = sorted({a for a in anumbers if anumbers.count(a) > 1})
    if repeated:
        raise ValueError(f"{', '.join(repeated)} given more than once")
    failures = 0
    for anumber in FIXTURE_SOURCES:
        if anumber in anumbers:
            try:
                report = fixture_report(anumber)
                ok, line = report.ok, report.message()
            except Exception as exc:  # a check that raises has failed; the rest still run
                ok, line = False, f"{type(exc).__name__}: {exc}"
            print(f"[{'ok' if ok else 'FAIL':>4}] {line}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1

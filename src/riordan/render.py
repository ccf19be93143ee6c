"""The ``show``, ``export`` and ``jf`` subcommands and their output.

A request renders one :class:`OutputDoc`: a triangle of a family
(``show``, and ``export``, which writes to a file) or the expansion of a
Jacobi continued fraction (``jf``), as a table, JSON, CSV or LaTeX.  Only
these three subcommands load this module.  Without cached bytecode a
request compiles every module it imports, so what only one of them runs is
imported where it is used: the families for ``show`` and ``export``, the
expression parser (:mod:`riordan.expr`) for ``jf``, ``json`` and ``csv``
for their formats.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

from . import _count
from .algebra import R
from .record import Record
from .series import tidy

SAFE_INT = 2**53  # larger integers are emitted as JSON strings

FORMATS = ("table", "json", "csv", "latex")

# The largest --N of show, export and jf: at N = 100 the dearest measured
# request (a jf expansion whose fraction takes the walk, with symbolic r)
# takes about 6 s, and cost grows steeply with N (see README).
MAX_N = 100


class OutputDoc(Record):
    """A rendered triangle or series expansion plus its metadata."""

    __slots__ = ("kind", "rows", "family", "flavor", "r", "size", "reversed_form", "extra")

    def __init__(
        self,
        kind: str,  # "matrix" | "series"
        rows: list[list],
        family: str | None = None,
        flavor: str | None = None,
        r: int | str | None = None,
        size: int = 0,
        reversed_form: bool = False,
        extra: dict | None = None,
    ):
        self.kind = kind
        self.rows = rows
        self.family = family
        self.flavor = flavor
        self.r = r
        self.size = size
        self.reversed_form = reversed_form
        self.extra = {} if extra is None else extra

    def json_object(self) -> dict:
        def encode(entry):
            entry = tidy(entry)
            if isinstance(entry, int):
                return entry if abs(entry) < SAFE_INT else str(entry)
            return str(entry)

        doc = {
            "kind": self.kind,
            "family": self.family,
            "flavor": self.flavor,
            "r": encode(self.r) if isinstance(self.r, int) else self.r,
            "N": self.size,
            "reversed": self.reversed_form,
            "rows": [[encode(e) for e in row] for row in self.rows],
        }
        doc.update(self.extra)
        return doc

    def render(self, fmt: str) -> str:
        if fmt == "json":
            import json

            return json.dumps(self.json_object(), indent=2) + "\n"
        if fmt == "table":
            return render_table(self.rows)
        if fmt == "csv":
            return render_csv(self.rows)
        if fmt == "latex":
            return render_latex(self.rows)
        raise ValueError(f"unknown format {fmt!r}")


def render_table(rows: list[list]) -> str:
    cells = [[str(tidy(e)) for e in row] for row in rows]
    widths: list[int] = []
    for row in cells:
        for k, text in enumerate(row):
            if k >= len(widths):
                widths.append(len(text))
            else:
                widths[k] = max(widths[k], len(text))
    lines = ["  ".join(text.rjust(widths[k]) for k, text in enumerate(row)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"


def render_csv(rows: list[list]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    for row in rows:
        cells = [tidy(e) for e in row]
        writer.writerow([c if isinstance(c, int) else str(c) for c in cells])
    return buffer.getvalue()


def render_latex(rows: list[list]) -> str:
    # A triangle's rows are at most as long as it has rows; a jf row (the
    # y-coefficients of one series coefficient) may be longer.
    size = max([len(rows), *map(len, rows)])
    lines = [r"\left(", r"\begin{array}{" + "c" * size + "}"]
    for row in rows:
        padded = [str(tidy(e)).replace("*", " ") for e in row] + ["0"] * (size - len(row))
        lines.append(" " + " & ".join(padded) + r" \\")
    lines += [r"\end{array}", r"\right)"]
    return "\n".join(lines) + "\n"


# -- options ---------------------------------------------------------------------
#
# Each subcommand's options, as (name, argparse keyword arguments) pairs:
# riordan.cli parses a request from them, and riordan.usage builds the
# argparse parser of help texts and usage errors from the same pairs.  A type
# raises ValueError with the text that follows "argument --X: ".


def _r_value(text: str):
    if text == "r":
        return "r"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--r takes an integer or the literal 'r', got {text!r}") from None


def _order(text: str) -> int:
    """``--N``: a count of at most MAX_N."""
    value = _count(text)
    if value > MAX_N:
        raise ValueError(f"must be at most MAX_N = {MAX_N}, got {value}")
    return value


def show_options():
    from .families import POLYTOPE_NAMES

    family_help = "triangle family (default: the parameterized family)"
    flavor_help = "flavor of the parameterized family (default ordinary)"
    r_help = "parameter of the parameterized family: an integer or the literal 'r' for symbolic (default r)"
    return (
        ("--family", dict(choices=("parametric",) + POLYTOPE_NAMES, default="parametric", help=family_help)),
        ("--flavor", dict(choices=("ordinary", "exponential"), help=flavor_help)),
        ("--r", dict(type=_r_value, help=r_help)),
        ("--which", dict(choices=("gamma", "h", "f"), required=True)),
        ("--N", dict(type=_order, default=8, help=f"largest row index, at most {MAX_N} (default 8)")),
        ("--reversed", dict(action="store_true", help="reverse every row")),
        ("--format", dict(choices=FORMATS, default="table")),
    )


def export_options():
    options = tuple((name, dict(kw, default="json") if name == "--format" else kw) for name, kw in show_options())
    return options + (("--output", dict(default="-", help="output path ('-' for stdout)")),)


def jf_options():
    return (
        ("--alpha", dict(required=True, help="level coefficients, e.g. '2*y+1'")),
        ("--beta", dict(required=True, help="x^2 weights, e.g. 'i*r*y*(y+1)'")),
        ("--N", dict(type=_order, default=10, help=f"expansion order, at most {MAX_N} (default 10)")),
        ("--format", dict(choices=FORMATS, default="table")),
    )


# -- subcommands -----------------------------------------------------------------


def _matrix_doc(args) -> OutputDoc:
    from .arrays import Kind
    from .families import FamilySpec, family_matrix

    if args.family == "parametric":
        flavor = args.flavor or "ordinary"
        r = "r" if args.r is None else args.r
        family = FamilySpec(Kind(flavor), R if r == "r" else r)
    elif args.flavor is not None or args.r is not None:
        raise ValueError(
            f"--flavor and --r apply only to the parametric family, not to {args.family}"
        )
    else:
        flavor = r = None
        family = args.family
    matrix = family_matrix(family, args.which, args.N)
    if args.reversed:
        matrix = matrix.reversed()
    return OutputDoc(
        kind="matrix",
        rows=[list(row) for row in matrix.rows],
        family=args.family,
        flavor=flavor,
        r=r,
        size=args.N,
        reversed_form=args.reversed,
    )


def cmd_show(args) -> int:
    """``show``, and ``export``, which writes to ``--output`` unless it is '-'."""
    text = _matrix_doc(args).render(args.format)
    if getattr(args, "output", "-") == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    return 0


def cmd_jf(args) -> int:
    """A parse error names its option: ``error: --beta: unexpected ...``."""
    from .expr import ParseError, parse_index_poly
    from .jfraction import JFraction

    weights = []
    for option in ("alpha", "beta"):
        try:
            weights.append(parse_index_poly(getattr(args, option)))
        except ParseError as exc:
            raise ValueError(f"--{option}: {exc}") from None
    alpha, beta = weights
    doc = OutputDoc(
        kind="series",
        rows=JFraction(alpha, beta).rows(args.N),
        size=args.N,
        extra={"alpha": str(alpha), "beta": str(beta)},
    )
    sys.stdout.write(doc.render(args.format))
    return 0

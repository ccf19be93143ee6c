"""Command-line front end.

Subcommands:

* ``show``        -- render a gamma/h/f triangle of a family (table, json,
                     csv or latex), optionally reversed;
* ``jf``          -- expand a Jacobi continued fraction given alpha/beta as
                     polynomial expressions in i, r, y;
* ``verify``      -- run the group/props/oeis check suites;
* ``export``      -- like show, but written to a file (JSON by default);
* ``oeis-check``  -- regenerate embedded OEIS fixtures from constructions;
* ``fetch-bfile`` -- download (and cache) an OEIS b-file.

Exit codes: 0 on success, 1 when a verification/comparison fails or a file
cannot be read or written, 2 on usage or expression-parse errors.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from . import DEFAULT_SEED, SUITES, _lazy_names
from .algebra import MultiPoly, R
from .arrays import Kind
from .families import (
    POLYTOPE_NAMES,
    FamilySpec,
    family_matrix,
    h_matrix,  # noqa: F401 -- perfbench's tracer test checks cli.h_matrix
)
from .jfraction import JFraction, parse_index_poly
from .record import Record
from .series import tidy

# What only some subcommands use (json, csv) is imported where it is used,
# and the subcommands that no show, export or jf request runs live in
# riordan.cold.  Without cached bytecode, every module a request imports is
# compiled from source before the request can start.

SAFE_INT = 2**53  # larger integers are emitted as JSON strings

FORMATS = ("table", "json", "csv", "latex")

# The largest --N of show, export and jf: at N = 100 the dearest measured
# request (a jf expansion with symbolic r) takes about 6 s, and cost grows
# steeply with N (see README).
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
            "r": self.r,
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
    size = len(rows)
    lines = [r"\left(", r"\begin{array}{" + "c" * size + "}"]
    for row in rows:
        padded = [str(tidy(e)).replace("*", " ") for e in row] + ["0"] * (size - len(row))
        lines.append(" " + " & ".join(padded) + r" \\")
    lines += [r"\end{array}", r"\right)"]
    return "\n".join(lines) + "\n"


# -- argument helpers ----------------------------------------------------------


def _r_value(text: str):
    if text == "r":
        return "r"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--r takes an integer or the literal 'r', got {text!r}")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _order(text: str) -> int:
    value = _nonnegative_int(text)
    if value > MAX_N:
        raise argparse.ArgumentTypeError(f"must be at most MAX_N = {MAX_N}, got {value}")
    return value


def _matrix_doc(args) -> OutputDoc:
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


def _add_show_arguments(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--family",
        choices=("parametric",) + POLYTOPE_NAMES,
        default="parametric",
        help="triangle family (default: the parameterized family)",
    )
    sub.add_argument(
        "--flavor",
        choices=("ordinary", "exponential"),
        help="flavor of the parameterized family (default ordinary)",
    )
    sub.add_argument(
        "--r",
        type=_r_value,
        help="parameter of the parameterized family: an integer or the "
        "literal 'r' for symbolic (default r)",
    )
    sub.add_argument("--which", choices=("gamma", "h", "f"), required=True)
    sub.add_argument("--N", type=_order, default=8, help=f"largest row index, at most {MAX_N} (default 8)")
    sub.add_argument("--reversed", action="store_true", help="reverse every row")
    sub.add_argument("--format", choices=FORMATS, default="table")


# -- subcommands -----------------------------------------------------------------


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
    alpha = parse_index_poly(args.alpha)
    beta = parse_index_poly(args.beta)
    series = JFraction(alpha, beta).expand(args.N)
    rows = []
    for n in range(args.N + 1):
        poly = MultiPoly.coerce(series[n])
        rows.append([tidy(c) for c in poly.y_coefficients()])
    doc = OutputDoc(
        kind="series",
        rows=rows,
        size=args.N,
        extra={"alpha": str(alpha), "beta": str(beta)},
    )
    sys.stdout.write(doc.render(args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Pascal-like triangle calculus: Riordan arrays, "
        "continued fractions, OEIS cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="render a gamma/h/f triangle")
    _add_show_arguments(show)
    show.set_defaults(func="cmd_show")

    export = sub.add_parser("export", help="write a triangle to a file")
    _add_show_arguments(export)
    export.set_defaults(format="json")
    export.add_argument("--output", default="-", help="output path ('-' for stdout)")
    export.set_defaults(func="cmd_show")

    jf = sub.add_parser("jf", help="expand a Jacobi continued fraction")
    jf.add_argument("--alpha", required=True, help="level coefficients, e.g. '2*y+1'")
    jf.add_argument("--beta", required=True, help="x^2 weights, e.g. 'i*r*y*(y+1)'")
    jf.add_argument("--N", type=_order, default=10, help=f"expansion order, at most {MAX_N} (default 10)")
    jf.add_argument("--format", choices=FORMATS, default="table")
    jf.set_defaults(func="cmd_jf")

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument(
        "suite", nargs="?", default="all", choices=("all",) + SUITES
    )
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.set_defaults(func="cmd_verify")

    oeis = sub.add_parser("oeis-check", help="check embedded OEIS fixtures")
    oeis.add_argument("anumber", nargs="*", help="A-numbers (default: all fixtures)")
    oeis.set_defaults(func="cmd_oeis_check")

    fetch = sub.add_parser("fetch-bfile", help="download an OEIS b-file")
    fetch.add_argument("anumber")
    fetch.add_argument("--cache-dir", default=None)
    fetch.add_argument("--offline", action="store_true", help="only use the cache")
    fetch.add_argument("--limit", type=_nonnegative_int, default=12, help="terms to print")
    fetch.set_defaults(func="cmd_fetch_bfile")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A subcommand is named, not referenced, so that the cold ones are
    # imported (through __getattr__) only by the request that runs them.
    func = getattr(sys.modules[__name__], args.func)
    try:
        return func(args)
    except (ValueError, IndexError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


__getattr__ = _lazy_names(
    globals(), ("cold", "cmd_fetch_bfile cmd_oeis_check cmd_verify parse_matrix_doc")
)


if __name__ == "__main__":
    sys.exit(main())

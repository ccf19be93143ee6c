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

``show``, ``export`` and ``jf`` are defined here, ``verify`` and
``oeis-check`` in :mod:`riordan.verify`, ``fetch-bfile`` in
:mod:`riordan.bfile`; a request imports no other subcommand's module.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from . import _submodule
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

# What only some subcommands use (json, csv) is imported where it is used.
# Without cached bytecode, every module a request imports is compiled from
# source before the request can start.

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


def _add_export_arguments(sub: argparse.ArgumentParser):
    _add_show_arguments(sub)
    sub.set_defaults(format="json")
    sub.add_argument("--output", default="-", help="output path ('-' for stdout)")


def _add_jf_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--alpha", required=True, help="level coefficients, e.g. '2*y+1'")
    sub.add_argument("--beta", required=True, help="x^2 weights, e.g. 'i*r*y*(y+1)'")
    sub.add_argument("--N", type=_order, default=10, help=f"expansion order, at most {MAX_N} (default 10)")
    sub.add_argument("--format", choices=FORMATS, default="table")


# (name, help, the module that defines the subcommand, the function there
# that adds its arguments, the function that runs it).  The functions are
# named, not referenced, so that the modules of the cold subcommands are
# imported only by the request that runs them.
_SUBCOMMANDS = (
    ("show", "render a gamma/h/f triangle", "cli", "_add_show_arguments", "cmd_show"),
    ("export", "write a triangle to a file", "cli", "_add_export_arguments", "cmd_show"),
    ("jf", "expand a Jacobi continued fraction", "cli", "_add_jf_arguments", "cmd_jf"),
    ("verify", "run the verification suites", "verify", "add_verify_arguments", "cmd_verify"),
    ("oeis-check", "check embedded OEIS fixtures", "verify", "add_oeis_check_arguments", "cmd_oeis_check"),
    ("fetch-bfile", "download an OEIS b-file", "bfile", "add_fetch_bfile_arguments", "cmd_fetch_bfile"),
)


class _Subparser(argparse.ArgumentParser):
    """A subcommand's parser, built when it first parses.

    A request runs one subcommand, and building the parsers of all six
    costs more than the rest of the parse.  Until it parses, the parser is
    only a name in its parent's choices, which is all the parent's help and
    usage errors read; its own help and errors are printed while it parses,
    so every text reads as if all six had been built up front.  The
    argument type ``"count"`` is :func:`_nonnegative_int`, for the modules
    that cannot import this one.
    """

    def __init__(self, module: str, add_arguments: str, func: str, **kwargs):
        # ArgumentParser.__init__ runs when the parser first parses.
        self._pending = module, add_arguments, func, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            module, add_arguments, func, kwargs = self._pending
            self._pending = None
            super().__init__(**kwargs)
            self.register("type", "count", _nonnegative_int)
            # This module's own functions come from its globals: under
            # ``python -m riordan.cli`` it runs as __main__, and importing
            # riordan.cli would compile it a second time.
            home = globals() if module == "cli" else vars(_submodule(module))
            home[add_arguments](self)
            self.set_defaults(func=home[func])
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Pascal-like triangle calculus: Riordan arrays, "
        "continued fractions, OEIS cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)
    for name, help_text, module, add_arguments, func in _SUBCOMMANDS:
        sub.add_parser(name, help=help_text, module=module, add_arguments=add_arguments, func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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

This module is only the dispatcher.  ``show``, ``export`` and ``jf`` are
defined in :mod:`riordan.render`, ``verify`` and ``oeis-check`` in
:mod:`riordan.verify`, ``fetch-bfile`` in :mod:`riordan.bfile`, and a
request imports only its own subcommand's module: importing this one loads
none of them.
"""

from __future__ import annotations

import argparse
import sys

from . import _lazy_names, _submodule


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# (name, help, the module that defines the subcommand, the function there
# that adds its arguments, the function that runs it).  The functions are
# named, not referenced, so that a request imports only the module of the
# subcommand it runs.
_SUBCOMMANDS = (
    ("show", "render a gamma/h/f triangle", "render", "_add_show_arguments", "cmd_show"),
    ("export", "write a triangle to a file", "render", "_add_export_arguments", "cmd_show"),
    ("jf", "expand a Jacobi continued fraction", "render", "_add_jf_arguments", "cmd_jf"),
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
            home = vars(_submodule(module))
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


# perfbench/tracer.py's Tracer.install() wraps OutputDoc.render by looking the
# class up here (line 198), and perfbench/test_perfbench.py reads h_matrix
# here (line 156); every other name that moved to riordan.render imports from
# there only.
__getattr__ = _lazy_names(globals(), ("render", "OutputDoc"), ("families", "h_matrix"))


if __name__ == "__main__":
    sys.exit(main())

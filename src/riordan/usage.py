"""The ``riordan`` command's argparse parser: its help texts and usage errors.

:mod:`riordan.cli` parses a request from its subcommand's option table
without argparse.  An argv it does not take (``-h``, ``--help``, a usage
error, or a spelling only argparse takes, such as ``--N=6``, ``--form
table`` or a repeated option) is parsed here, by an argparse parser built
from the same tables.  Only such requests import this module, and with it
``argparse`` and the ``gettext`` and ``locale`` that argparse loads.
"""

import argparse

from . import _submodule


def _reporting(convert):
    """The option type ``convert``, its ValueError raised as argparse's
    ArgumentTypeError, whose text argparse prints after the option's name."""

    def typed(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


class _Subparser(argparse.ArgumentParser):
    """A subcommand's parser, built when it first parses.

    A request names one subcommand, and building the parsers of all six
    would import the modules of all six.  Until it parses, the parser is
    only a name in its parent's choices, which is all the parent's help and
    usage errors read; its own help and errors are printed while it parses,
    so every text reads as if all six had been built up front.
    """

    def __init__(self, module: str, options: str, func: str, **kwargs):
        # ArgumentParser.__init__ runs when the parser first parses.
        self._pending = module, options, func, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            module, options, func, kwargs = self._pending
            self._pending = None
            super().__init__(**kwargs)
            home = vars(_submodule(module))
            for name, kw in home[options]():
                # A class such as int keeps argparse's own "invalid int value".
                if "type" in kw and not isinstance(kw["type"], type):
                    kw = dict(kw, type=_reporting(kw["type"]))
                self.add_argument(name, **kw)
            self.set_defaults(func=home[func])
        return super().parse_known_args(args, namespace)


def parse_args(argv: list[str], subcommands) -> argparse.Namespace:
    """argparse's namespace for ``argv``; on help or a usage error argparse
    prints the text and exits, 0 or 2.  ``subcommands`` is
    ``riordan.cli._SUBCOMMANDS``, passed in because under ``python -m
    riordan.cli`` that module is ``__main__``, and importing it would compile
    it again."""
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Pascal-like triangle calculus: Riordan arrays, "
        "continued fractions, OEIS cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)
    for name, help_text, module, options, func in subcommands:
        sub.add_parser(name, help=help_text, module=module, options=options, func=func)
    return parser.parse_args(argv)

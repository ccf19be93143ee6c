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
cannot be read or written, 2 on usage or expression-parse errors, and on
any ValueError or IndexError a computation raises (see README).
:func:`main` returns the code; :func:`run`, the process entry, exits with
it.

This module is only the dispatcher.  ``show``, ``export`` and ``jf`` are
defined in :mod:`riordan.render`, ``verify`` in :mod:`riordan.verify`,
``oeis-check`` in :mod:`riordan.oeis`, beside the fixtures it checks,
``fetch-bfile`` in :mod:`riordan.bfile`, and a
request imports only its own subcommand's module: importing this one loads
none of them.  Each of those modules declares its subcommands' options as
data, (name, argparse keyword arguments) pairs, and :func:`main` parses a
request from them without argparse (:func:`_parse`).  Only an argv that
parser leaves (help, a usage error, or a spelling such as ``--N=6`` that
only argparse takes) goes to the argparse parser that :mod:`riordan.usage`
builds from the same tables, so only those requests load ``argparse``,
``gettext`` and ``locale``.
"""

import sys
from types import SimpleNamespace

from . import _lazy_names, _submodule

# (name, help, the module that defines the subcommand, the function there
# that returns its options, the function that runs it).  The functions are
# named, not referenced, so that a request imports only the module of the
# subcommand it runs.
_SUBCOMMANDS = (
    ("show", "render a gamma/h/f triangle", "render", "show_options", "cmd_show"),
    ("export", "write a triangle to a file", "render", "export_options", "cmd_show"),
    ("jf", "expand a Jacobi continued fraction", "render", "jf_options", "cmd_jf"),
    ("verify", "run the verification suites", "verify", "verify_options", "cmd_verify"),
    ("oeis-check", "check embedded OEIS fixtures", "oeis", "oeis_check_options", "cmd_oeis_check"),
    ("fetch-bfile", "download an OEIS b-file", "bfile", "fetch_bfile_options", "cmd_fetch_bfile"),
)


def _convert(kw: dict, text: str):
    """text as an option with argparse keywords kw takes it: converted by
    its type and checked against its choices, else ValueError."""
    value = kw["type"](text) if "type" in kw else text
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(f"invalid choice {value!r}")
    return value


def _positional(kw: dict, words: list[str]):
    """The value of a positional argument (nargs None, '?' or '*') from its words."""
    nargs = kw.get("nargs")
    if nargs == "*":
        return [_convert(kw, word) for word in words]
    if len(words) > 1 or not words and nargs is None:
        raise ValueError(f"{len(words)} positional words")
    return _convert(kw, words[0]) if words else kw.get("default")


def _values(options, argv: list[str]) -> dict:
    """The options' values in a subcommand's argv, as argparse sets them,
    for the argv that this parser takes; else ValueError.

    It takes the positional words first, then the options, each named in
    full and at most once, and each but a flag (``store_true``) followed by
    a value that does not start with '-'; and every required option."""
    split = next((i for i, arg in enumerate(argv) if arg.startswith("-")), len(argv))
    words, values, flags = argv[:split], {}, {}
    for name, kw in options:  # at most one positional argument
        if name.startswith("-"):
            flags[name] = kw
            values[name[2:].replace("-", "_")] = False if kw.get("action") == "store_true" else kw.get("default")
        else:
            values[name], words = _positional(kw, words), []
    if words:
        raise ValueError(f"unexpected {words[0]!r}")
    given = set()
    args = iter(argv[split:])
    for arg in args:
        if arg not in flags or arg in given:
            raise ValueError(f"not taken here: {arg!r}")
        given.add(arg)
        kw = flags[arg]
        if kw.get("action") == "store_true":
            value = True
        elif (text := next(args, "-")).startswith("-"):
            raise ValueError(f"{arg} without a value")
        else:
            value = _convert(kw, text)
        values[arg[2:].replace("-", "_")] = value
    if any(kw.get("required") and name not in given for name, kw in flags.items()):
        raise ValueError("a required option is missing")
    return values


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would parse from ``argv``, built from the
    subcommand's option table without argparse; or None where argparse
    must parse it: for help, a usage error, or a spelling that only
    argparse takes (``--N=6``, an abbreviation, a repeated option, a value
    that starts with '-')."""
    entry = next((e for e in _SUBCOMMANDS if argv[:1] == [e[0]]), None)
    if entry is None:
        return None
    name, _, module, options, func = entry
    home = vars(_submodule(module))
    try:
        values = _values(home[options](), argv[1:])
    except ValueError:
        return None
    return SimpleNamespace(command=name, func=home[func], **values)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    if args is None:
        from .usage import parse_args

        args = parse_args(argv, _SUBCOMMANDS)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry (``python -m riordan``, the ``riordan`` script).

    It runs :func:`main`, then the exit handlers and the flush of both
    streams, as the interpreter's exit would, and ends the process without
    tearing the interpreter down: no output depends on that teardown, which
    took about 10 ms of every request on a 2-core x86-64 machine.  Where a
    flush fails (a closed pipe, a full disk, a stream that is closed or
    None), it exits through ``sys.exit``, so that the interpreter reports
    the failure as it always has (exit 120 for a closed pipe).  A write
    inside ``main`` to a stdout whose reader has gone (an output larger
    than the stream's buffer, or any output unbuffered) ends the same way,
    with code 120; anything else ``main`` raises propagates unchanged."""
    import atexit
    import os

    try:
        code = main()
    except BrokenPipeError:
        code = 120
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the interpreter's exit reports it
        sys.exit(code)
    os._exit(code)


# perfbench/tracer.py's Tracer.install() wraps OutputDoc.render by looking the
# class up here (line 198), and perfbench/test_perfbench.py reads h_matrix
# here (line 156); every other name that moved to riordan.render imports from
# there only.
__getattr__ = _lazy_names(globals(), ("render", "OutputDoc"), ("families", "h_matrix"))


if __name__ == "__main__":
    run()

"""The option-table parser of ``riordan.cli`` against the argparse parser
built from the same tables (``riordan.usage``): where the table parser
takes an argv, it sets exactly what argparse sets."""

import contextlib
import io

from hypothesis import given, strategies as st

import riordan
from riordan import cli
from riordan.usage import parse_args


def argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where argparse
    prints help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse_args(argv, cli._SUBCOMMANDS))
        except SystemExit:
            return None


def table_vars(argv):
    args = cli._parse(argv)
    return None if args is None else vars(args)


def options_of(entry):
    _, _, module, options, _ = entry
    return vars(riordan._submodule(module))[options]()


# Values of every kind an option or a positional argument meets: valid and
# invalid counts, a value above MAX_N, negative numbers, the symbolic r,
# empty text, expressions, A-numbers, and words that look like options.
VALUES = ["0", "6", "12", "100", "101", "-1", "-7", "x", "r", "", "-", "2*y+1", "i*r*y", "A055151", "a1263", "7 "]
ODD = ["-h", "--help", "--", "-", "-1", "--no-such-option", "-N"]
# Values that options without choices take.
TAKEN = {"--N": ["0", "3", "100"], "--r": ["r", "-2", "2"], "--seed": ["7"], "--limit": ["5"], "--output": ["o.json"]}


@st.composite
def argvs(draw):
    """A subcommand (or not), then its positional words and a list of
    pieces.  Most pieces are an option with a value it takes; the others are
    an option with any value, an option alone, an abbreviated option, an
    ``--option=value`` form, a word or an odd token.  Options repeat as
    they come."""
    entry = draw(st.sampled_from(cli._SUBCOMMANDS))
    table = dict(options_of(entry))

    def taken(name):
        kw = table.get(name, {})
        values = kw.get("choices") or TAKEN.get(name) or ["2*y+1", "A055151", "a1263"]
        return st.sampled_from([*values, *values, "x"])  # and, now and then, one it does not take

    flags = [name for name in table if name.startswith("-")] + ["--help"]
    flag = st.sampled_from(flags)
    anything = st.sampled_from(VALUES)
    good = flag.flatmap(lambda f: st.tuples(st.just(f), taken(f)) if "action" not in table.get(f, {}) else st.just((f,)))
    piece = st.one_of(
        good,
        good,
        good,
        st.tuples(flag, anything),
        st.tuples(flag),
        st.tuples(flag.flatmap(lambda f: st.integers(3, max(3, len(f) - 1)).map(lambda k: f[:k])), anything),
        st.builds(lambda f, v: (f"{f}={v}",), flag, anything),
        st.tuples(anything),
        st.tuples(st.sampled_from(ODD)),
    )
    positional = [name for name in table if not name.startswith("-")]
    words = draw(st.lists(taken(positional[0]), max_size=3)) if positional else []
    required = [(name, draw(taken(name))) for name, kw in table.items() if kw.get("required")]
    pieces = draw(st.permutations(required + draw(st.lists(piece, max_size=4))))
    command = draw(st.sampled_from([entry[0]] * 8 + ["-h", "frobnicate"]))
    return [command, *words] + [token for p in pieces for token in p]


@given(argvs())
def test_the_table_parser_defers_or_agrees_with_argparse(argv):
    taken = table_vars(argv)
    if taken is not None:
        assert taken == argparse_vars(argv)


def _benchmark_shapes():
    """Every argv shape of the benchmark's decks."""
    formats = ("table", "json", "csv", "latex")
    shapes = []
    for fmt in formats:
        for rev in ([], ["--reversed"]):
            for which in ("h", "f", "gamma"):
                for flavor in ("ordinary", "exponential"):
                    shapes.append(["show", "--flavor", flavor, "--r", "r", "--which", which, "--N", "36", "--format", fmt, *rev])
                for family in ("associahedron", "permutahedron"):
                    shapes.append(["show", "--family", family, "--which", which, "--N", "14", "--format", fmt, *rev])
        for alpha, beta in [
            ("2*y+1", "i*r*y*(y+1)"),
            ("y+1", "i*r*y"),
            ("(i+1)*(2*y+1)", "i*(i+1)*y*(y+1)"),
            ("2*y+1", "r*y*(y+1)"),
            ("1", "i*r*y"),
            ("i+1", "i*(i+1)*r*y"),
        ]:
            shapes.append(["jf", "--alpha", alpha, "--beta", beta, "--N", "16", "--format", fmt])
    shapes += [["verify", "group", "--seed", "123456"], ["verify", "props"], ["verify", "oeis"]]
    shapes += [["oeis-check", "A055151", "A135278"], ["oeis-check", "A019538", "A001147"]]
    return shapes


def test_the_benchmark_argv_shapes_never_defer():
    for argv in _benchmark_shapes():
        taken = table_vars(argv)
        assert taken is not None, argv
        assert taken == argparse_vars(argv)


def test_examples_of_argv_that_only_argparse_takes():
    for argv in [
        ["show", "--which", "f", "--N=6"],
        ["show", "--which", "f", "--form", "csv"],
        ["show", "--which", "h", "--which", "f"],
        ["show", "--which", "f", "--r", "-1"],
        ["verify", "--seed", "7", "group"],
        ["fetch-bfile", "--offline", "A45"],
        ["oeis-check", "--", "A055151"],
    ]:
        assert table_vars(argv) is None and argparse_vars(argv) is not None, argv
    for argv in [[], ["-h"], ["show"], ["show", "--which", "f", "--N", "101"], ["jf", "--alpha", "1"], ["verify", "all", "x"]]:
        assert table_vars(argv) is None and argparse_vars(argv) is None, argv

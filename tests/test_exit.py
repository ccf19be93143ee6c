"""How a ``riordan`` process ends: through :func:`riordan.cli.run`.

Each case runs the entry as a subprocess and expects what ``cli.main``
prints in-process, or what the interpreter printed before the entry
skipped its finalization: the same stdout, stderr and exit code.  A stdout
whose reader has gone ends every request with exit 120 and no traceback.
Each request of the table runs once per entry, with ``-X importtime``, so
that the same run shows which modules it loads.
"""

import contextlib
import functools
import io
import re
from pathlib import Path

import pytest

from process import python, request
from riordan.cli import main

ENTRIES = ["riordan", "riordan.cli"]
ROOT = Path(__file__).resolve().parents[1]


# The entries of one argv are tested one after the other, so the last
# reference is the one asked for again; a larger cache would keep the 20 MB
# output of the large show.
@functools.lru_cache(maxsize=1)
def _in_process(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# The modules whose loading a request shows: the one module of its
# subcommand, and what only help and usage errors load.
WATCHED = {"riordan.render", "riordan.verify", "riordan.bfile", "argparse", "gettext", "locale", "riordan.usage"}
USAGE = "argparse gettext locale riordan.usage"

# name: (argv, exit code, the watched modules it loads)
CASES = {
    "ok": (["show", "--which", "f", "--N", "4"], 0, "riordan.render"),
    "a failed write": (["export", "--which", "f", "--N", "3", "--output", "no/such/dir/out.json"], 1, "riordan.render"),
    "a computation's ValueError": (["show", "--family", "simplex", "--r", "2", "--which", "h"], 2, "riordan.render"),
    "a parse error": (["jf", "--alpha", "2*", "--beta", "0"], 2, "riordan.render"),
    "a usage error": (["show", "--which", "q"], 2, f"riordan.render {USAGE}"),
    "help": (["jf", "--help"], 0, f"riordan.render {USAGE}"),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv, code, modules", CASES.values(), ids=list(CASES))
def test_the_entry_prints_and_exits_as_main_does(request_dir, entry, argv, code, modules):
    # Under ``python -m riordan.cli`` the cli module is __main__, and a
    # subcommand that imported riordan.cli would compile it a second time.
    # A request loads its subcommand's module alone, and argparse only for
    # help and usage errors.
    expected = _in_process(*argv)
    assert expected[0] == code
    status, out, err, loaded = request(request_dir, entry, *argv)
    assert (status, out, err) == expected
    assert loaded.count("riordan.cli") == (entry == "riordan")
    assert WATCHED.intersection(loaded) == set(modules.split())


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_large_output_reaches_a_pipe_whole(entry):
    argv = ["show", "--flavor", "exponential", "--which", "f", "--N", "100"]
    expected = _in_process(*argv)
    assert expected[0] == 0 and len(expected[1]) > 20_000_000
    assert python("-m", entry, *argv) == expected


def test_an_exported_file_is_complete(tmp_path):
    argv = ["export", "--flavor", "exponential", "--which", "f", "--N", "60", "--format", "csv", "--output"]
    assert _in_process(*argv, str(tmp_path / "in.csv")) == (0, "", "")
    assert python("-m", "riordan", *argv, str(tmp_path / "out.csv")) == (0, "", "")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "in.csv").read_bytes()


# ARGV started from ``-c`` code: as ``python -m`` starts each entry, as the
# installed console script does (sys.exit of the target's result), and not
# at all (the control).
ARGV = ["show", "--which", "h", "--N", "3"]
LAUNCHES = {
    **{entry: f"runpy.run_module({entry!r}, run_name='__main__', alter_sys=True)" for entry in ENTRIES},
    "the console script": "from riordan.cli import run\nsys.exit(run())",
    "no entry": "pass",
}


@functools.cache
def _launched(how) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ARGV launched ``how``, in a process
    that first registers an exit handler, which prints, and makes an object
    that only finalization destroys: its __del__ writes 'finalized'."""
    code = (
        "import atexit, os, runpy, sys\n"
        "class Witness:\n"
        "    def __del__(self):\n"
        "        os.write(2, b'finalized')\n"
        "witness = Witness()\n"
        "atexit.register(print, 'an exit handler ran')\n"
        f"sys.argv = ['riordan', *{ARGV!r}]\n"
        f"{LAUNCHES[how]}\n"
    )
    return python("-c", code)


def test_exit_handlers_run_before_the_streams_flush():
    code, out, _ = _in_process(*ARGV)
    for how in (*ENTRIES, "the console script"):
        assert _launched(how)[:2] == (code, out + "an exit handler ran\n")


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_interpreter_is_not_torn_down(entry):
    # The witness is never destroyed.
    assert _launched(entry)[2] == _in_process(*ARGV)[2]
    # The witness works: without the entry, it is destroyed.
    assert _launched("no entry") == (0, "an exit handler ran\n", "finalized")


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_closed_stdout_is_reported_as_the_interpreter_reports_it(entry):
    # The output fits the stream's buffer, so the final flush is the first
    # write to fail: exit 120, as ``sys.exit`` ends it.
    code, _, err = python("-m", entry, "show", "--which", "f", "--N", "3", closed=True)
    assert code == 120
    assert re.fullmatch(r"Exception ignored in: <_io\.TextIOWrapper name='<stdout>' [^\n]*>\n"
                        r"BrokenPipeError: \[Errno 32\] Broken pipe\n", err)


@pytest.mark.parametrize("size, unbuffered", [("30", False), ("3", True), ("30", True)],
                         ids=["large", "unbuffered", "large unbuffered"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_write_to_a_closed_stdout_inside_main_exits_120(entry, size, unbuffered):
    # Larger than the stream's buffer, or unbuffered, the output's write
    # fails inside main, which leaves nothing for the final flush to fail
    # on: exit 120, with no traceback.
    assert python("-m", entry, "show", "--which", "f", "--N", size, closed=True, unbuffered=unbuffered) == (120, "", "")


def test_the_console_script_runs_the_entry():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts.splitlines() == ['riordan = "riordan.cli:run"']
    code, out, err = _in_process(*ARGV)
    assert _launched("the console script") == (code, out + "an exit handler ran\n", err)

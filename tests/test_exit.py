"""How a ``riordan`` process ends: through :func:`riordan.cli.run`.

Each case runs the entry as a subprocess and expects what ``cli.main``
prints in-process, or what the interpreter printed before the entry
skipped its finalization: the same stdout, stderr and exit code.  A stdout
whose reader has gone ends every request with exit 120 and no traceback.
"""

import contextlib
import functools
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import riordan
from riordan.cli import main

ENTRIES = ["riordan", "riordan.cli"]
ROOT = Path(__file__).resolve().parents[1]


def _process(*args, cwd=None, closed=False, unbuffered=False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python ARGS`` (``-m ENTRY ARGV`` or
    ``-c CODE``).  Its streams are buffered, as a terminal or a pipe gets
    them by default, so that the last flush is the entry's, unless
    ``unbuffered`` sets PYTHONUNBUFFERED=1.  With ``closed``, its stdout is
    a pipe whose reading end is closed, and reads as ""."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(riordan.__path__[0]), PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                             stdout=write if closed else subprocess.PIPE, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    return res.returncode, (res.stdout or b"").decode(), res.stderr.decode()


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


# name: (argv, exit code)
CASES = {
    "ok": (["show", "--which", "f", "--N", "4"], 0),
    "a failed write": (["export", "--which", "f", "--N", "3", "--output", "no/such/dir/out.json"], 1),
    "a computation's ValueError": (["show", "--family", "simplex", "--r", "2", "--which", "h"], 2),
    "a parse error": (["jf", "--alpha", "2*", "--beta", "0"], 2),
    "a usage error": (["show", "--which", "q"], 2),
    "help": (["jf", "--help"], 0),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv, code", CASES.values(), ids=list(CASES))
def test_the_entry_prints_and_exits_as_main_does(tmp_path, entry, argv, code):
    expected = _in_process(*argv)
    assert expected[0] == code
    assert _process("-m", entry, *argv, cwd=tmp_path) == expected


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_large_output_reaches_a_pipe_whole(entry):
    argv = ["show", "--flavor", "exponential", "--which", "f", "--N", "100"]
    expected = _in_process(*argv)
    assert expected[0] == 0 and len(expected[1]) > 20_000_000
    assert _process("-m", entry, *argv) == expected


def test_an_exported_file_is_complete(tmp_path):
    argv = ["export", "--flavor", "exponential", "--which", "f", "--N", "60", "--format", "csv", "--output"]
    assert _in_process(*argv, str(tmp_path / "in.csv")) == (0, "", "")
    assert _process("-m", "riordan", *argv, str(tmp_path / "out.csv")) == (0, "", "")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "in.csv").read_bytes()


def test_exit_handlers_run_before_the_streams_flush():
    argv = ["show", "--which", "h", "--N", "3"]
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'an exit handler ran')\n"
        f"sys.argv = ['riordan', *{argv!r}]\n"
        "runpy.run_module('riordan', run_name='__main__')\n"
    )
    assert _process("-c", code) == (0, _in_process(*argv)[1] + "an exit handler ran\n", "")


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_interpreter_is_not_torn_down(entry):
    # An object that only finalization destroys: its __del__ never runs.
    code = (
        "import os, runpy, sys\n"
        "class Witness:\n"
        "    def __del__(self):\n"
        "        os.write(2, b'finalized')\n"
        "witness = Witness()\n"
        "sys.argv = ['riordan', 'show', '--which', 'h', '--N', '1']\n"
        f"runpy.run_module({entry!r}, run_name='__main__', alter_sys=True)\n"
    )
    assert _process("-c", code) == _in_process("show", "--which", "h", "--N", "1")
    # The witness works: without the entry, it is destroyed.
    assert _process("-c", code.replace("runpy.run_module", "(lambda *a, **k: None)"))[2] == "finalized"


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_closed_stdout_is_reported_as_the_interpreter_reports_it(entry):
    # The output fits the stream's buffer, so the final flush is the first
    # write to fail: exit 120, as ``sys.exit`` ends it.
    code, _, err = _process("-m", entry, "show", "--which", "f", "--N", "3", closed=True)
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
    assert _process("-m", entry, "show", "--which", "f", "--N", size, closed=True, unbuffered=unbuffered) == (120, "", "")


def test_the_console_script_runs_the_entry():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts.splitlines() == ['riordan = "riordan.cli:run"']
    # What the installed script does: sys.exit of the target's result.
    argv = ["show", "--which", "gamma", "--N", "5"]
    code = f"import sys\nfrom riordan.cli import run\nsys.argv = ['riordan', *{argv!r}]\nsys.exit(run())\n"
    assert _process("-c", code) == _in_process(*argv)

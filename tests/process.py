"""How every Tier-1 test starts a Python process: on this tree, without site
packages, its streams buffered unless asked otherwise."""

import functools
import os
import subprocess
import sys

import riordan


def python(*args, cwd=None, closed=False, unbuffered=False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -S ARGS`` (``-m ENTRY ARGV``
    or ``-c CODE``) with this tree's riordan on its path.  Its streams are
    buffered, as a terminal or a pipe gets them by default, so that the last
    flush is the entry's, unless ``unbuffered`` sets PYTHONUNBUFFERED=1.
    With ``closed``, its stdout is a pipe whose reading end is closed, and
    reads as ""."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(riordan.__path__[0]), PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run([sys.executable, "-S", *args], env=env, cwd=cwd,
                             stdout=write if closed else subprocess.PIPE, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    return res.returncode, (res.stdout or b"").decode(), res.stderr.decode()


def fresh_interpreter(code: str) -> list[str]:
    """The stdout lines of code run in a new interpreter, which must exit 0."""
    status, out, err = python("-c", code)
    assert status == 0, err
    return out.splitlines()


@functools.cache
def request(cwd, entry: str, *argv: str) -> tuple[int, str, str, tuple[str, ...]]:
    """Exit code, stdout and stderr (its import lines dropped) of
    ``python -S -X importtime -m ENTRY ARGV`` run in cwd, and the modules it
    imported, in order.  Each request runs once, however many tests read it."""
    status, out, err = python("-X", "importtime", "-m", entry, *argv, cwd=cwd)
    lines = err.splitlines(True)
    loaded = tuple(line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time: "))
    return status, out, "".join(line for line in lines if not line.startswith("import time:")), loaded

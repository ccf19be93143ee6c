#!/usr/bin/env python3
"""Compare what ``riordan`` prints under this tree's ``src/`` and another tree's.

usage: python scripts/compare_outputs.py BASELINE_SRC

BASELINE_SRC is the ``src`` directory of another source tree, for example of
one made with ``git worktree add ../parent HEAD~1``.  The script runs a
built-in sweep of commands (:func:`sweep`) under each tree, in one fresh
interpreter per tree that calls ``riordan.cli.main`` for each command in
turn, and records per command its exit code, its standard output and error,
and the file an ``export`` wrote.  It prints the number of commands and each
command whose record differs between the trees, and exits 1 on any
difference, 0 otherwise.

The sweep covers ``show`` for both flavours at r in {r, 0, -1, 3, 2^60}, every
``--which``, plain and reversed, at N in {0, 1, 2, 12, 36, 100}, in all four
formats; ``export`` to a file; the four polytopes; the six ``jf`` templates
of the benchmark; rational, sparse, wide and dense high-degree fractions,
with levels in i and free of i; and parse and usage errors.  Both trees run
at once, one process each; the sweep takes about a minute per tree on a
2-core x86-64 machine.

That sweep never reaches the entry a ``riordan`` process starts from, which
ends the process.  So a sample of about 40 commands (:data:`PROCESSES`)
then runs as ``python -m riordan``, one process per command and tree, the
two trees' processes of a command one after the other: every subcommand,
every exit code, every format, a 20 MB output and four requests whose
stdout is a pipe already closed.  Their streams are buffered
(``PYTHONUNBUFFERED`` is unset), as a terminal's or a pipe's are by
default, and the tree's path in stderr reads ``SRC``.  The script prints
the number of those commands and each whose exit code, stdout, stderr or
written file differs; this pass takes about ten seconds.

Called again in one interpreter (``main`` takes the command lists as
arguments), the script reuses this tree's records of each command list and
process command, and runs only the baseline's.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The file an export command writes, relative to the runner's working
# directory, so that both trees print the same path.
OUTPUT = "export.out"

# Runs the commands it reads as JSON from stdin and prints one JSON record
# per command: [exit code, stdout digest, stderr, digest of OUTPUT or None].
# Outputs are kept as digests: the largest are tens of MB.
RUNNER = """
import contextlib, hashlib, io, json, os, sys
import riordan.cli as cli

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if os.path.exists(%(output)r):
        with open(%(output)r) as f:
            written = digest(f.read())
        os.remove(%(output)r)
    print(json.dumps([code, digest(out.getvalue()), err.getvalue(), written]), flush=True)
""" % {"output": OUTPUT}

FORMATS = ("table", "json", "csv", "latex")

# The benchmark's six jf templates (the fifth's rows are too sparse to pack),
# then fractions on each side of the row recurrence's other engine choices:
# rational weights, a weight too wide to pack, entries of more than 64 packed
# slots, slots of about 1300 bits, and dense weights of high degree; last,
# fractions whose levels are free of i on each branch of their rows: packed
# with signed weights, on MultiPoly by density and by width, rational, and
# sparse in y.
JF_FRACTIONS = (
    ("2*y+1", "i*r*y*(y+1)"),
    ("y+1", "i*r*y"),
    ("(i+1)*(2*y+1)", "i*(i+1)*y*(y+1)"),
    ("2*y+1", "r*y*(y+1)"),
    ("1", "i*r*y"),
    ("i+1", "i*(i+1)*r*y"),
    ("1/2+y", "(1/3)*i*r*y"),
    ("1", "i*(18446744073709551616*r-r^30)"),
    ("y-3", "i*(1024*r^3-r^4)"),
    ("y+1", "i*1048576*r*y"),
    ("(1+i+r+y)^3", "(1+i+r+y)^3"),
    ("3*y-2", "5*r^2*y-7"),
    ("1", "18446744073709551616*r-r^30"),
    ("1", "10715086071862673209484250490600018105614048117055336074437503883703510511249361224931983788156958581275946729175531468251871452856923140435984577574698574803934567774824230985421074605062371141877954182153046474983581941267398767559165543946077062914571196477686542167660429831652624386837205668069376*r+r^2"),
    ("1/2+y", "1/3*r*y"),
    ("y^32", "y"),
)

ERRORS = (
    ["jf", "--alpha", "2*", "--beta", "0"],
    ["jf", "--alpha", "x", "--beta", "0"],
    ["jf", "--alpha", "1", "--beta", "r^100000"],
    ["jf", "--alpha", "(" * 300 + "1" + ")" * 300, "--beta", "0"],
    ["jf", "--alpha", "1", "--beta", "0", "--N", "x"],
    ["jf", "--alpha", "1"],
    ["show", "--which", "f", "--N", "-1"],
    ["show", "--which", "f", "--N", "101"],
    ["show", "--which", "q"],
    ["show", "--N", "3"],
    ["show", "--which", "f", "--r", "x"],
    ["show", "--family", "simplex", "--r", "2", "--which", "h"],
    ["show", "--family", "permutahedron", "--flavor", "ordinary", "--which", "h"],
    ["show", "--which", "f", "--N=6"],
    ["show", "--which", "f", "--format", "xml"],
    ["export", "--which", "f", "--output", "no/such/dir/out.json"],
    ["verify", "nothing"],
    ["bogus"],
    [],
    ["--help"],
    ["show", "--help"],
    ["jf", "--help"],
)


# (argv, whether stdout is a closed pipe) for the commands run as processes.
PROCESSES = [(argv, False) for argv in (
    ["show", "--which", "f", "--N", "12"],
    ["show", "--flavor", "exponential", "--r", "3", "--which", "h", "--N", "36", "--format", "json"],
    ["show", "--which", "gamma", "--N", "12", "--reversed", "--format", "csv"],
    ["show", "--r", "-1", "--which", "f", "--N", "12", "--format", "latex"],
    ["show", "--flavor", "exponential", "--which", "f", "--N", "100"],
    ["show", "--family", "associahedron", "--which", "f", "--N", "36"],
    ["show", "--family", "permutahedron", "--which", "gamma", "--N", "12", "--format", "json"],
    ["show", "--which", "f", "--N=6"],
    ["show", "--which", "f", "--N", "101"],
    ["show", "--family", "simplex", "--r", "2", "--which", "h"],
    ["export", "--which", "f", "--N", "12", "--output", OUTPUT],
    ["export", "--which", "h", "--N", "12", "--format", "latex", "--output", OUTPUT],
    ["export", "--which", "f", "--N", "12", "--format", "csv"],
    ["export", "--which", "f", "--output", "no/such/dir/out.json"],
    ["jf", "--alpha", "2*y+1", "--beta", "i*r*y*(y+1)", "--N", "13"],
    ["jf", "--alpha", "(i+1)*(2*y+1)", "--beta", "i*(i+1)*y*(y+1)", "--N", "40", "--format", "csv"],
    ["jf", "--alpha", "2*y+1", "--beta", "r*y*(y+1)", "--N", "13", "--format", "json"],
    ["jf", "--alpha", "y^32", "--beta", "y", "--N", "40"],
    ["jf", "--alpha", "1/2+y", "--beta", "(1/3)*i*r*y", "--N", "13", "--format", "latex"],
    ["jf", "--alpha", "2*", "--beta", "0"],
    ["jf", "--alpha", "1", "--beta", "r^100000"],
    ["jf", "--alpha", "1"],
    ["verify", "oeis"],
    ["verify", "props"],
    ["verify", "props", "--seed", "7"],
    ["verify", "group"],
    ["verify", "nothing"],
    ["oeis-check", "A055151", "A135278"],
    ["oeis-check", "xyz"],
    ["fetch-bfile", "A000045", "--offline", "--cache-dir", "cache"],
    ["fetch-bfile", "xyz", "--offline", "--cache-dir", "cache"],
    ["bogus"],
    [],
    ["--help"],
    ["show", "--help"],
    ["verify", "--help"],
)] + [(argv, True) for argv in (
    ["show", "--which", "f", "--N", "3"],
    ["show", "--which", "f", "--N", "30"],
    ["jf", "--alpha", "1", "--beta", "i*y", "--N", "6"],
    ["oeis-check", "A055151"],
)]


def sweep() -> list[list[str]]:
    """The commands both trees run."""
    commands = []
    for flavor in ("ordinary", "exponential"):
        for r in ("r", "0", "-1", "3", str(2**60)):
            for which in ("gamma", "h", "f"):
                for n in (0, 1, 2, 12, 36, 100):
                    for fmt in FORMATS:
                        argv = ["show", "--flavor", flavor, "--r", r, "--which", which, "--N", str(n), "--format", fmt]
                        commands += [argv, argv + ["--reversed"]]
    for fmt in FORMATS:
        commands.append(["export", "--which", "f", "--N", "12", "--format", fmt, "--output", OUTPUT])
    commands.append(
        ["export", "--flavor", "exponential", "--which", "h", "--N", "36", "--reversed", "--output", OUTPUT]
    )
    commands.append(["export", "--family", "permutahedron", "--which", "gamma", "--N", "12"])
    for family in ("simplex", "hypercube", "associahedron", "permutahedron"):
        for which in ("gamma", "h", "f"):
            for n in (0, 1, 2, 12, 36, 100):
                argv = ["show", "--family", family, "--which", which, "--N", str(n)]
                commands += [argv, argv + ["--reversed"]]
            argv = ["show", "--family", family, "--which", which, "--N", "12", "--format"]
            commands += [argv + [fmt] for fmt in FORMATS[1:]]
    for alpha, beta in JF_FRACTIONS:
        for n in (0, 1, 2, 13, 40):
            commands.append(["jf", "--alpha", alpha, "--beta", beta, "--N", str(n)])
        commands += [["jf", "--alpha", alpha, "--beta", beta, "--N", "13", "--format", fmt] for fmt in FORMATS[1:]]
    for alpha, beta in JF_FRACTIONS[0], JF_FRACTIONS[3], JF_FRACTIONS[4]:
        commands.append(["jf", "--alpha", alpha, "--beta", beta, "--N", "100"])
    return commands + [list(argv) for argv in ERRORS]


def run(src: Path, commands: list[list[str]], workdir: str) -> subprocess.Popen:
    """Start one interpreter that runs the commands under the tree ``src`` in
    ``workdir``, writing its records to the file ``records`` there."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with open(os.path.join(workdir, "records"), "w") as out:
        argv = [sys.executable, "-c", RUNNER]
        process = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.PIPE, stdout=out, text=True)
    process.stdin.write(json.dumps(commands))
    process.stdin.close()
    return process


# This tree's records, per command list or process command: computed once
# per interpreter, where the baseline's are computed on every call.
_OURS = {}


def differences(baseline: Path, commands: list[list[str]], src: Path = SRC) -> list[str]:
    """One line per command whose record differs between the two trees."""
    key = (str(src), json.dumps(commands))
    with tempfile.TemporaryDirectory() as theirs, tempfile.TemporaryDirectory() as ours:
        trees = [(baseline, theirs)] + [(src, ours)] * (key not in _OURS)
        for process in [run(tree, commands, workdir) for tree, workdir in trees]:
            if process.wait():
                raise RuntimeError(f"the runner exited with {process.returncode}")
        records = [[json.loads(line) for line in Path(workdir, "records").read_text().splitlines()] for _, workdir in trees]
    if key not in _OURS:
        _OURS[key] = records.pop()
    return [f"riordan {shlex.join(argv)}: {_what_differs(a, b)} differ" for argv, a, b in zip(commands, _OURS[key], records[0]) if a != b]


def _what_differs(a: list, b: list) -> str:
    """The parts in which two records differ."""
    parts = ("exit code", "stdout", "stderr", "written file")
    return ", ".join(part for part, x, y in zip(parts, a, b) if x != y)


def run_process(src: Path, argv: list[str], closed: bool) -> list:
    """Run ``python -m riordan ARGV`` under the tree ``src`` in a new working
    directory: [exit code, stdout digest (None if closed), stderr, digest of
    OUTPUT or None]."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)
    stdout = subprocess.PIPE
    if closed:
        read, stdout = os.pipe()
        os.close(read)
    with tempfile.TemporaryDirectory() as workdir:
        try:
            command = [sys.executable, "-m", "riordan", *argv]
            res = subprocess.run(command, cwd=workdir, env=env, stdout=stdout, stderr=subprocess.PIPE)
        finally:
            if closed:
                os.close(stdout)
        written = Path(workdir, OUTPUT)
        digest = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None
    out = None if closed else hashlib.sha256(res.stdout).hexdigest()
    return [res.returncode, out, res.stderr.decode().replace(str(src), "SRC"), digest]


def process_differences(baseline: Path, processes, src: Path = SRC) -> list[str]:
    """One line per process command whose record differs between the trees."""
    out = []
    for argv, closed in processes:
        key = (str(src), json.dumps([argv, closed]))
        if key not in _OURS:
            _OURS[key] = run_process(src, argv, closed)
        ours, theirs = _OURS[key], run_process(baseline, argv, closed)
        if ours != theirs:
            how = "as a process, stdout closed" if closed else "as a process"
            out.append(f"riordan {shlex.join(argv)} ({how}): {_what_differs(ours, theirs)} differ")
    return out


def main(
    argv: list[str] | None = None,
    commands: list[list[str]] | None = None,
    processes: list[tuple[list[str], bool]] | None = None,
) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    commands = sweep() if commands is None else commands
    processes = PROCESSES if processes is None else processes
    baseline = Path(args[0]).resolve()
    found = differences(baseline, commands)
    by_process = process_differences(baseline, processes)
    print(f"{len(commands)} commands, {len(found)} differ")
    print(f"{len(processes)} commands as processes, {len(by_process)} differ")
    for line in found + by_process:
        print(line)
    return 1 if found or by_process else 0


if __name__ == "__main__":
    sys.exit(main())

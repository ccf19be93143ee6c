#!/usr/bin/env python3
"""Which ``riordan`` modules one request loads, and what compiling them costs.

usage: python scripts/request_footprint.py [--repeats K] ARGV...
       python scripts/request_footprint.py --tree [--baseline SRC]
       python scripts/request_footprint.py --checks SUITE [--repeats K] [--baseline SRC]

for example ``python scripts/request_footprint.py show --which f --N 30``.
With ``--tree`` it prints instead the code lines (as counted below) of each
module under ``scripts/``, ``src/riordan`` and ``tests/``, with the total of
each directory and of all three: the repository's net line count.  With
``--baseline SRC`` as well (the ``src`` directory of another tree, such as
a checkout of the parent commit, whose scripts and tests are read from the
``scripts`` and ``tests`` beside it), each row gives the module's code
lines in that tree, in this one and the change, "-" where a tree lacks the
module: a change's net line count in one command.

With ``--checks SUITE`` (group, props, oeis or all) it prints instead the
cold CPU time of each check of that ``riordan verify`` suite.  The suite
runs K times, each in a fresh interpreter as below.  Each run imports the
suite's registry first, so compiling the package counts in no check, and
then runs every check once, in suite order, timing ``Check.run`` by
``time.process_time``: each time is cold, since no check runs twice in one
interpreter.  The script prints each check's median time over the K runs,
then the quartiles of the K suite totals, the spread to weigh a difference
against; it exits 1 if a check failed in any run.  With ``--baseline SRC``
the runs alternate, SRC's first, between SRC and this tree, K runs of
each.  Each check then gets SRC's median, this tree's median and their
ratio (this tree over SRC; "-" for a check that only one tree has), and
the quartiles of both trees' suite totals follow, with the ratio of their
medians.

ARGV is the request's command line after ``riordan``; put ``--`` before it
if it starts with an option of this script.  The request runs once in a
fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` (its output is
discarded), as the benchmark runs it: every module it imports is then
compiled from source.  For each ``riordan`` module the request loaded, the
script prints its code lines (lines holding code: not blank lines, nor
lines that hold only comments or string literals, such as docstrings) and
its cold ``compile()`` time: the first compile of that source in a fresh
interpreter, the median over K fresh interpreters (default 5).  Each of
those interpreters compiles every module once, so its total is one sample
of the request's compile time; after the table, the script prints the
quartiles of those K totals, the spread to weigh a difference against.

Then it lists the standard-library modules the request imports that a bare
``python -c pass`` does not, in the order ``python -X importtime`` reports
them, with their import times: each module's own time and its cumulative
time (with the modules it imported first), the medians over K more fresh
runs of the request under ``-X importtime``.

For ``show``, ``export`` and ``jf`` it prints first the plan of the
fraction the request expands (:meth:`riordan.jfraction.JFraction.plan`, read
in the same fresh interpreter): its engine, its layout (``Plan.layout``),
its slot width ("-" on MultiPoly), the bit length of its proven bound and a
rational fraction's common denominator.

Last it splits the request's wall time into four stages, each the median
over K more fresh processes: start (from spawning the interpreter to its
first statement), imports (``import riordan.cli``), run (``cli.main``) and
exit (from ``main``'s return to the process's end).  The request ends
through ``riordan.cli.run``, as ``python -m riordan`` ends it; a second row
ends it with ``sys.exit``, whose exit stage is the interpreter's full
finalization, and a third splits a bare ``python -c pass`` (no imports, an
empty run) the same way.  The stages are read on ``time.monotonic``, whose
clock the processes of one machine share.
"""

import argparse
import ast
import functools
import json
import os
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SUITES = ("group", "props", "oeis", "all")

# The request's riordan modules, then, for show, export and jf, the plan
# (JFraction.plan) of the fraction it expanded: the request runs again with
# the plans recorded, after its modules are listed.  A rational fraction's
# plan is made from its cleared fraction's, so the last plan is the request's.
LOADED = """
import contextlib, io, json, sys
import riordan.cli
def request():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            riordan.cli.main(sys.argv[1:])
        except SystemExit:
            pass
request()
modules = sorted((name, m.__file__) for name, m in sys.modules.items() if name.split(".")[0] == "riordan")
plans = []
if sys.argv[1] in ("show", "export", "jf") and "riordan.jfraction" in sys.modules:
    from riordan.jfraction import JFraction
    plan = JFraction.plan
    JFraction.plan = lambda frac, order: plans.append(plan(frac, order)) or plans[-1]
    request()
print(json.dumps([modules, [[p.layout, *p] for p in plans[-1:]]]))
"""

COMPILE = """
import json, sys, time
times = []
for path in sys.argv[1:]:
    source = open(path).read()
    start = time.perf_counter()
    compile(source, path, "exec")
    times.append(time.perf_counter() - start)
print(json.dumps(times))
"""

# One cold run of a verify suite (argv[1]): (check, ok, CPU s) for each check.
CHECK_TIMES = """
import json, sys, time
from riordan import verify
suite = sys.argv[1]
# verify oeis runs the fixture checks alone; the other suites read CHECKS.
registry = verify.FIXTURE_CHECKS if suite == "oeis" else verify.CHECKS
times = []
for check in registry:
    if suite in ("all", check.suite):
        start = time.process_time()
        ok = check.run().ok
        times.append((f"{check.suite} :: {check.name}", ok, time.process_time() - start))
print(json.dumps(times))
"""

# Tokens that hold no code: comments, layout and string literals.  A line
# is a code line if it holds any other token, so docstrings and text data
# (the OEIS fixture rows) count nothing: their compile cost is that of one
# constant, however many lines they take.
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER, tokenize.STRING}
SKIPPED |= {getattr(tokenize, name) for name in ("FSTRING_START", "FSTRING_MIDDLE", "FSTRING_END")
            if hasattr(tokenize, name)}  # Python 3.12 splits f-strings into these


def code_lines(path: str) -> int:
    """Lines that hold a token other than a comment, layout or a string literal."""
    with open(path, "rb") as f:
        return len({tok.start[0] for tok in tokenize.tokenize(f.readline) if tok.type not in SKIPPED})


# The request as the command line runs it, with no other import before it.
REQUEST = "import sys\nfrom riordan.cli import main\nsys.exit(main(sys.argv[1:]))"

# The request, writing the times it reaches each stage to the file
# descriptor argv[1]; argv[2] is how it ends: "run", "sys.exit", or "pass"
# for a bare interpreter that imports and runs nothing.
STAGES = """
import os, sys, time
marks = [time.monotonic()]
fd, how = int(sys.argv.pop(1)), sys.argv.pop(1)
if how == "pass":
    marks *= 3  # no imports, an empty run
else:
    import riordan.cli as cli
    marks.append(time.monotonic())
    main = cli.main
    def timed(argv=None):
        try:
            return main(argv)
        finally:
            marks.append(time.monotonic())
            os.write(fd, repr(marks).encode())
    cli.main = timed
    if how == "run":
        cli.run()
    sys.exit(cli.main())
os.write(fd, repr(marks).encode())
"""

STAGE_NAMES = ("start", "imports", "run", "exit")


def stages(request: list[str], how: str) -> list[float]:
    """The four stages of one fresh process of the request, in seconds."""
    read, write = os.pipe()
    try:
        command = [sys.executable, "-c", STAGES, str(write), how, *request]
        start = time.monotonic()
        subprocess.run(command, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, pass_fds=(write,))
        end = time.monotonic()
    finally:
        os.close(write)
    with os.fdopen(read) as f:
        marks = ast.literal_eval(f.read())
    points = [start, *marks, end]
    return [b - a for a, b in zip(points, points[1:])]


def _env(src: Path = SRC) -> dict:
    """The environment of a fresh interpreter of the package under src, which
    compiles every module it imports from source."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def fresh_python(code: str, args: list[str], src: Path = SRC) -> str:
    """The last stdout line of code run in a fresh interpreter of src's package."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=_env(src), capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1]


def quartiles(totals: list[float]) -> str:
    """q1, median and q3 of per-run totals, in ms."""
    q = statistics.quantiles(totals, n=4, method="inclusive") if len(totals) > 1 else totals * 3
    return f"q1 {q[0]:.2f}, median {q[1]:.2f}, q3 {q[2]:.2f}"


def import_times(code: str, args: list[str]) -> dict[str, tuple[int, int]]:
    """Each module that code imports in a fresh interpreter, in the order
    ``-X importtime`` reports it: (own, cumulative) import time in µs.  The
    code's exit status is not checked: a failing request imports too."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, *args],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    times = {}
    for line in result.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = (int(fields[0]), int(fields[1]))
    return times


DIRECTORIES = ("scripts", "src/riordan", "tests")


@functools.cache
def _modules(root: Path) -> dict[str, int]:
    """The code lines of each module under root's DIRECTORIES, by path;
    each tree is counted once per interpreter."""
    return {
        path.relative_to(root).as_posix(): code_lines(str(path))
        for directory in DIRECTORIES
        for path in sorted((root / directory).rglob("*.py"))
    }


def tree(baseline: Path | None = None) -> None:
    """Print the code lines of each module under scripts/, src/riordan and
    tests/, with the total of each directory and of all three; with a
    baseline (the src directory of another tree), a column of its lines
    before this tree's, and the change."""
    trees = [_modules(SRC.parent)] if baseline is None else [_modules(baseline.parent), _modules(SRC.parent)]

    def row(label: str, counts: list[int | None]) -> None:
        cells = ["-" if c is None else str(c) for c in counts]
        if baseline is not None:
            cells.append(f"{(counts[1] or 0) - (counts[0] or 0):+d}")
        print(f"{label:40s}" + "".join(f" {cell:>6s}" for cell in cells))

    if baseline is not None:
        print(f"{'module':40s} {'base':>6s} {'this':>6s} {'delta':>6s}")
    for directory in DIRECTORIES:
        inside = [{name: n for name, n in t.items() if name.startswith(directory + "/")} for t in trees]
        for name in sorted(set().union(*inside)):
            row(name, [t.get(name) for t in inside])
        row(f"{directory} total", [sum(t.values()) for t in inside])
    row("total", [sum(t.values()) for t in trees])


def _medians(runs) -> dict[str, tuple[float, bool]]:
    """Each check's median ms over one tree's runs, and whether it passed in all."""
    names = [name for name, _, _ in runs[0]]
    return {
        name: (1000 * statistics.median(run[i][2] for run in runs), all(run[i][1] for run in runs))
        for i, name in enumerate(names)
    }


def checks(suite: str, repeats: int, baseline: Path | None = None) -> int:
    """Print the cold CPU time of each check of the suite, in this tree or,
    with a baseline, in both trees; 1 if a check failed in any run."""
    srcs = [SRC] if baseline is None else [baseline, SRC]
    runs = [[] for _ in srcs]  # one list per tree: the baseline may be this tree
    for _ in range(repeats):  # the trees alternate, the baseline first
        for src, tree_runs in zip(srcs, runs):
            tree_runs.append(json.loads(fresh_python(CHECK_TIMES, [suite], src)))
    tables = [_medians(tree_runs) for tree_runs in runs]
    each = "runs" if baseline is None else "alternating runs of each tree"
    print(f"riordan verify {suite}: cold CPU ms per check, median over {repeats} {each}")
    print(f"{'ms':>9s}  check" if baseline is None else f"{'baseline':>9s} {'this':>9s} {'ratio':>6s}  check")
    for name in {name: None for table in tables for name in table}:
        ms = [table[name][0] if name in table else None for table in tables]
        cells = [f"{'-':>9s}" if m is None else f"{m:9.2f}" for m in ms]  # "-": a check the tree lacks
        if baseline is not None:
            cells.append(f"{ms[1] / ms[0]:6.3f}" if ms[0] and ms[1] is not None else f"{'-':>6s}")
        ok = all(table[name][1] for table in tables if name in table)
        print(" ".join(cells) + f"  {name}{'' if ok else '  [FAIL]'}")
    totals = [[1000 * sum(t for _, _, t in run) for run in tree_runs] for tree_runs in runs]
    for label, tree_totals in zip([""] if baseline is None else ["baseline ", "this tree "], totals):
        print(f"per-run suite total CPU ms over {repeats} runs: {label}{quartiles(tree_totals)}")
    if baseline is not None:
        ratio = statistics.median(totals[1]) / statistics.median(totals[0])
        print(f"ratio of the median totals (this tree over baseline): {ratio:.3f}")
    return 0 if all(ok for table in tables for _, ok in table.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="fresh interpreters per timing")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--tree", action="store_true", help="print the code lines of scripts/, src/riordan and tests/ instead")
    mode.add_argument("--checks", choices=SUITES, help="time each check of this verify suite instead")
    parser.add_argument("--baseline", type=Path, help="with --tree or --checks: the src directory of a tree to compare against")
    parser.add_argument("request", nargs=argparse.REMAINDER, help="the request's argv after 'riordan'")
    args = parser.parse_args(argv)
    if args.baseline is not None and not ((args.tree or args.checks) and (args.baseline / "riordan").is_dir()):
        parser.error("--baseline needs --tree or --checks and the src directory of a tree, holding riordan/")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.tree:
        tree(args.baseline)
        return 0
    if args.checks:
        return checks(args.checks, args.repeats, args.baseline)
    request = args.request[1:] if args.request[:1] == ["--"] else args.request
    if not request:
        parser.error("give the request's argv")

    modules, plans = json.loads(fresh_python(LOADED, request))
    paths = [path for _, path in modules]
    runs = [json.loads(fresh_python(COMPILE, paths)) for _ in range(args.repeats)]
    print(f"riordan {' '.join(request)}")
    for layout, engine, width, bound, den in plans:
        width = f"{width} bits" if width else "-"
        print(f"plan: {engine}, {layout}, width {width}, bound {bound.bit_length()} bits" + (f", denominator {den}" if den != 1 else ""))
    print(f"{'module':22s} {'code lines':>10s} {'compile ms':>10s}")
    total_lines = total_ms = 0.0
    for i, (name, path) in enumerate(modules):
        lines = code_lines(path)
        ms = 1000 * statistics.median(run[i] for run in runs)
        total_lines += lines
        total_ms += ms
        print(f"{name:22s} {lines:10d} {ms:10.2f}")
    print(f"{'total':22s} {int(total_lines):10d} {total_ms:10.2f}")
    print(f"per-run total compile ms over {len(runs)} runs: {quartiles([1000 * sum(run) for run in runs])}")

    bare = import_times("pass", [])
    samples = [import_times(REQUEST, request) for _ in range(args.repeats)]
    stdlib = [name for name in samples[0] if name not in bare and name.split(".")[0] != "riordan"]
    print(f"{'standard library':22s} {'import ms':>10s} {'cumul. ms':>10s}")
    total_ms = 0.0
    for name in stdlib:
        own, cumulative = (statistics.median(s[name][i] for s in samples if name in s) / 1000 for i in (0, 1))
        total_ms += own
        print(f"{name:22s} {own:10.2f} {cumulative:10.2f}")
    print(f"{'total':22s} {total_ms:10.2f}")

    rows = (("riordan.cli.run", "run"), ("sys.exit", "sys.exit"), ("python -c pass", "pass"))
    samples = {how: [] for _, how in rows}
    for _ in range(args.repeats):  # the three alternate, so that drift reaches each alike
        for how in samples:
            samples[how].append(stages(request, how))
    print(f"wall ms, medians over {args.repeats} runs")
    print(f"{'ends by':22s}" + "".join(f" {name:>8s}" for name in (*STAGE_NAMES, "total")))
    for label, how in rows:
        medians = [1000 * statistics.median(run[i] for run in samples[how]) for i in range(4)]
        total = 1000 * statistics.median(sum(run) for run in samples[how])
        print(f"{label:22s}" + "".join(f" {ms:8.2f}" for ms in (*medians, total)))
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone, as after `| head -3`: end quietly with the
        # code riordan.cli.run gives a closed pipe, without the flush at
        # exit, which would fail again.
        os._exit(120)
    sys.exit(code)

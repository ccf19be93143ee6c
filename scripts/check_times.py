#!/usr/bin/env python3
"""The cold CPU time of each check of one ``riordan verify`` suite.

usage: python scripts/check_times.py SUITE [--repeats K] [--baseline SRC]

SUITE is group, props, oeis or all.  The suite runs K times (default 5),
each time in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``, as the
benchmark runs its requests.  Each run imports the suite's registry first,
so compiling the package counts in no check, and then runs every check
once, in suite order, timing ``Check.run`` by ``time.process_time``: each
time is cold, since no check runs twice in one interpreter.  The script
prints each check's median time over the K runs, then the quartiles of the
K suite totals, the spread to weigh a difference against.

With ``--baseline SRC`` (the ``src`` directory of another tree, such as a
checkout of the parent commit) the runs alternate, SRC's first, between SRC
and this tree, K runs of each.  Each check then gets SRC's median, this
tree's median and their ratio (this tree over SRC; "-" for a check that
only one tree has), and the quartiles of both trees' suite totals follow,
with the ratio of their medians.

It times the checks from outside: nothing here is on a request's path.  It
exits 1 if a check failed in any run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SUITES = ("group", "props", "oeis", "all")

RUN = """
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


def run_suite(suite: str, src: Path = SRC) -> list[tuple[str, bool, float]]:
    """One cold run of the suite of the package under src in a fresh
    interpreter: (check, ok, CPU s) each."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", RUN, suite], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def medians(runs) -> dict[str, tuple[float, bool]]:
    """Each check's median ms over the runs, and whether it passed in all."""
    names = [name for name, _, _ in runs[0]]
    return {
        name: (1000 * statistics.median(run[i][2] for run in runs), all(run[i][1] for run in runs))
        for i, name in enumerate(names)
    }


def quartiles(runs) -> list[float]:
    """q1, median and q3 of the runs' suite totals, in ms."""
    totals = sorted(1000 * sum(t for _, _, t in run) for run in runs)
    return statistics.quantiles(totals, n=4, method="inclusive") if len(totals) > 1 else totals * 3


def _quartile_text(q: list[float]) -> str:
    return f"q1 {q[0]:.2f}, median {q[1]:.2f}, q3 {q[2]:.2f}"


def _ms(ms: float | None) -> str:
    """A median in the baseline table's column, "-" for a check the tree lacks."""
    return f"{ms:9.2f}" if ms is not None else f"{'-':>9s}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--repeats", type=int, default=5, help="fresh interpreters, one suite run each")
    parser.add_argument("--baseline", type=Path, help="the src directory of a tree to compare against")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.baseline is None:
        runs = [run_suite(args.suite) for _ in range(args.repeats)]
        print(f"riordan verify {args.suite}: cold CPU ms per check, median over {args.repeats} runs")
        print(f"{'ms':>9s}  check")
        checks = medians(runs)
        for name, (ms, ok) in checks.items():
            print(f"{ms:9.2f}  {name}{'' if ok else '  [FAIL]'}")
        print(f"per-run suite total CPU ms over {len(runs)} runs: {_quartile_text(quartiles(runs))}")
        return 0 if all(ok for _, ok in checks.values()) else 1

    base_runs, runs = [], []
    for _ in range(args.repeats):
        base_runs.append(run_suite(args.suite, args.baseline))
        runs.append(run_suite(args.suite))
    print(f"riordan verify {args.suite}: cold CPU ms per check, "
          f"median over {args.repeats} alternating runs of each tree")
    print(f"{'baseline':>9s} {'this':>9s} {'ratio':>6s}  check")
    base, this = medians(base_runs), medians(runs)
    for name in {**base, **this}:
        (b, b_ok), (t, t_ok) = base.get(name, (None, True)), this.get(name, (None, True))
        ratio = f"{t / b:6.3f}" if b and t is not None else f"{'-':>6s}"
        print(f"{_ms(b)} {_ms(t)} {ratio}  {name}{'' if b_ok and t_ok else '  [FAIL]'}")
    bq, tq = quartiles(base_runs), quartiles(runs)
    print(f"per-run suite total CPU ms over {args.repeats} runs: baseline {_quartile_text(bq)}")
    print(f"per-run suite total CPU ms over {args.repeats} runs: this tree {_quartile_text(tq)}")
    print(f"ratio of the median totals (this tree over baseline): {tq[1] / bq[1]:.3f}")
    return 0 if all(ok for _, ok in [*base.values(), *this.values()]) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The cold CPU time of each check of one ``riordan verify`` suite.

usage: python scripts/check_times.py SUITE [--repeats K]

SUITE is group, props, oeis or all.  The suite runs K times (default 5),
each time in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``, as the
benchmark runs its requests.  Each run imports the suite's registry first,
so compiling the package counts in no check, and then runs every check
once, in suite order, timing ``Check.run`` by ``time.process_time``: each
time is cold, since no check runs twice in one interpreter.  The script
prints each check's median time over the K runs, then the quartiles of the
K suite totals, the spread to weigh a difference against.  It times the
checks from outside: nothing here is on a request's path.  It exits 1 if a
check failed in any run.
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


def run_suite(suite: str) -> list[tuple[str, bool, float]]:
    """One cold run of the suite in a fresh interpreter: (check, ok, CPU s) each."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", RUN, suite], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--repeats", type=int, default=5, help="fresh interpreters, one suite run each")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    runs = [run_suite(args.suite) for _ in range(args.repeats)]
    print(f"riordan verify {args.suite}: cold CPU ms per check, median over {args.repeats} runs")
    print(f"{'ms':>9s}  check")
    failed = False
    for i, (name, _, _) in enumerate(runs[0]):
        ms = 1000 * statistics.median(run[i][2] for run in runs)
        ok = all(run[i][1] for run in runs)
        failed |= not ok
        print(f"{ms:9.2f}  {name}{'' if ok else '  [FAIL]'}")
    totals = sorted(1000 * sum(t for _, _, t in run) for run in runs)
    quartiles = statistics.quantiles(totals, n=4, method="inclusive") if len(totals) > 1 else totals * 3
    print(f"per-run suite total CPU ms over {len(totals)} runs: "
          f"q1 {quartiles[0]:.2f}, median {quartiles[1]:.2f}, q3 {quartiles[2]:.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

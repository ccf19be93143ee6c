"""Closed-loop benchmark of the ``riordan`` command line, one client.

Usage, from the repository root::

    python3 perfbench/run.py --workload symbolic-show --seed 1 --seconds 20 --trace 0

``--trace 0`` sends the workload's seeded request stream as real
``python -m riordan ...`` subprocesses, interpreter start included, one
at a time, and reports the end-to-end metrics.  A run covers a fixed
number of whole decks of requests, set by ``--seconds`` alone (see
``workloads.decks_per_run``), so every run of a workload does the same
work on any commit.  Request times are scaled to a nominal machine speed
(see ``SpeedGauge``).  ``--trace 1`` runs the same decks in-process
instead, each request once plain and once with the per-layer tracer
installed, and reports the per-layer metrics.

Every response is checked against the reference built by
``reference.py`` before timing starts.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from reference import Reference
from tracer import LayerStat, Tracer
from workloads import MAX_SIZES, WORKLOADS, deck_stream, decks_per_run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
# Times are scaled to a nominal machine speed: see SpeedGauge.
CAL_NOMINAL_S = 0.100
CAL_KERNEL = """
import argparse, csv, dataclasses, enum, io, json, re
from fractions import Fraction
acc = {}
for i in range(3000):
    key = (i & 31, i & 3)
    acc[key] = acc.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, i % 11 + 1)
"""
REQUEST_TIMEOUT_S = 60.0
# No new request starts after this many multiples of --seconds (capped),
# so a much slower program still ends its run within the time allowed;
# the run then reports fewer requests than its decks hold.
HARD_LIMIT_FACTOR = 4
HARD_LIMIT_CAP_S = 100.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{
        f"{layer}.{op}_{what}": unit
        for layer, ops in (
            ("algebra", ("mul", "add", "construct")),
            ("series", ("mul", "inverse", "compose", "revert", "exp")),
            ("arrays", ("matrix", "tri_mul", "group_op")),
            ("jfraction", ("expand",)),
            ("oeis", ("check",)),
        )
        for op in ops
        for what, unit in (("calls", "count"), ("self_s", "s"))
    },
    "algebra.max_terms": "count",
    "algebra.max_coeff_bits": "bits",
    "series.compose_per_revert": "ratio",
    "arrays.from_series_self_s": "s",
    "jfraction.expand_order_sum": "count",
    "jfraction.parse_self_s": "s",
    "families.gamma_from_h_self_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "verify.group_s": "s",
    "verify.props_s": "s",
    "verify.oeis_s": "s",
    "cli.render_self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.requests": "count",
}


# -- timing ------------------------------------------------------------------------------


class SpeedGauge:
    """Scales measured times to the nominal speed of a calibration process.

    The cores of a shared host change speed by up to 1.5x within seconds,
    as other tenants come and go, which moves a run's wall-time medians by
    20% or more.  So a fixed calibration subprocess runs between requests:
    the same interpreter starts, imports the standard-library modules the
    package uses and does small ``Fraction`` and dict arithmetic, like the
    package's inner loops.  Each measured time is multiplied by
    ``CAL_NOMINAL_S / c``, where ``c`` is the mean time of the calibration
    runs just before and just after it.  The calibration never imports the
    package, so no change to the package can move it.
    """

    def __init__(self, env: dict):
        self._argv = [sys.executable, "-c", CAL_KERNEL]
        self._env = env
        self._last = self._calibrate()
        self.factors: list[float] = []

    def _calibrate(self) -> float:
        res = run_child(self._argv, self._env, REQUEST_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"calibration failed: {res.stderr.strip()}")
        return res.elapsed

    def scale(self, elapsed: float) -> float:
        after = self._calibrate()
        factor = CAL_NOMINAL_S / ((self._last + after) / 2)
        self._last = after
        self.factors.append(factor)
        return elapsed * factor


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of the order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    density, integrated numerically.  A run's request times leave gaps
    between request kinds, and a single order statistic jumps across them
    from seed to seed; DESIGN.md gives the spreads of both.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64 * n
    weights = [0.0] * n
    for j in range(steps):  # midpoint rule; 64 cells per order statistic
        t = (j + 0.5) / steps
        weights[j // 64] += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples above it, (n - 10) / n of n; the largest if n <= 10."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    p = (n - 10) / n
    return hd_quantile(values, p), 100.0 * p


# -- one request ----------------------------------------------------------------------


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str = ""
    elapsed: float = 0.0
    max_rss_kb: int = 0
    timed_out: bool = False


def run_child(argv: list[str], env: dict, timeout: float) -> ChildResult:
    """Run a subprocess to completion, killing it after ``timeout`` seconds.

    The child is reaped with ``os.wait4`` so that its own resource usage
    (peak RSS) is read, not that of all children so far.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, expire)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    return ChildResult(
        returncode=proc.returncode,
        stdout=out.decode(),
        stderr=err[0].decode() if err else "",
        elapsed=time.perf_counter() - start,
        max_rss_kb=usage.ru_maxrss,
        timed_out=expired.is_set(),
    )


def run_in_process(main, argv) -> tuple[int, str, float]:
    """Call ``riordan.cli.main`` with captured output: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), time.perf_counter() - start


def run_traced(tracer: Tracer, main, argv) -> tuple[int, str, float]:
    """``run_in_process`` with the tracer installed for the one call."""
    tracer.install()
    try:
        return run_in_process(lambda args: tracer.request(main, args), argv)
    finally:
        tracer.uninstall()


# -- the two kinds of run ----------------------------------------------------------------


def check_responses(done, reference: Reference) -> list[tuple]:
    """(argv, reason) of every failed request among (request, result, time) triples."""
    failures = []
    for request, res, _ in done:
        why = "timed out" if res.timed_out else reference.check(request, res.returncode, res.stdout)
        if why is not None:
            failures.append((request.argv, why))
    return failures


def _report_failures(failures):
    for argv, why in failures[:5]:
        print(f"failed: riordan {' '.join(argv)}: {why}", file=sys.stderr)


def run_decks(workload: str, seed: int, seconds: float):
    """The run's requests in order; stops early only at the hard limit."""
    hard_stop = time.perf_counter() + min(HARD_LIMIT_FACTOR * seconds, HARD_LIMIT_CAP_S)
    decks = itertools.islice(deck_stream(workload, seed), decks_per_run(workload, seconds))
    for request in itertools.chain.from_iterable(decks):
        if time.perf_counter() >= hard_stop:
            print("hard time limit reached; run cut short", file=sys.stderr)
            return
        yield request


def load_run(workload: str, seed: int, seconds: float, reference: Reference) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    setup_argv = [sys.executable, "-c", "import riordan.cli"]
    run_child(setup_argv, env, REQUEST_TIMEOUT_S)  # compiles bytecode on a fresh checkout
    gauge = SpeedGauge(env)
    setup = []
    for _ in range(SETUP_REPEATS):
        res = run_child(setup_argv, env, REQUEST_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"cannot import riordan.cli: {res.stderr.strip()}")
        setup.append(gauge.scale(res.elapsed))

    request_argv = [sys.executable, "-m", "riordan"]
    done: list[tuple] = []
    start = time.perf_counter()
    for request in run_decks(workload, seed, seconds):
        res = run_child(request_argv + list(request.argv), env, REQUEST_TIMEOUT_S)
        done.append((request, res, gauge.scale(res.elapsed)))
    wall = time.perf_counter() - start

    failures = check_responses(done, reference)
    _report_failures(failures)

    latencies = [scaled for _, _, scaled in done]
    tail, tail_pct = tail_latency(latencies)
    raw = sum(res.elapsed for _, res, _ in done)
    print(
        f"{workload} seed {seed}: {len(done)} requests in {wall:.2f} s wall; "
        f"request times scaled by {sum(latencies) / raw:.3f} "
        f"(factors {min(gauge.factors):.3f}-{max(gauge.factors):.3f}); "
        f"latency_tail_s is the p{tail_pct:.1f} latency of {len(latencies)} samples"
    )
    values = {
        "setup_s": statistics.median(setup),
        "requests_per_s": len(done) / sum(latencies),
        "latency_p50_s": hd_quantile(latencies, 0.5),
        "latency_tail_s": tail,
        "ok_share": (len(done) - len(failures)) / len(done),
        "peak_rss_mb": max(res.max_rss_kb for _, res, _ in done) / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return _result(len(done), len(failures), metrics)


def traced_run(workload: str, seed: int, seconds: float, reference: Reference) -> dict:
    from riordan import cli

    tracer = Tracer()
    plain_s = traced_s = 0.0
    output_bytes = attempted = 0
    failures = []
    for request in run_decks(workload, seed, seconds):
        # Alternate which of the pair runs first, so that warm-up
        # favours neither side of trace.overhead_ratio.
        runs = {
            False: lambda: run_in_process(cli.main, request.argv),
            True: lambda: run_traced(tracer, cli.main, request.argv),
        }
        order = (False, True) if attempted % 2 == 0 else (True, False)
        results = {traced: runs[traced]() for traced in order}
        (code, out, elapsed), (traced_code, traced_out, traced_elapsed) = results[False], results[True]
        plain_s += elapsed
        traced_s += traced_elapsed
        output_bytes += len(traced_out.encode())
        attempted += 1
        why = reference.check(request, code, out) or reference.check(request, traced_code, traced_out)
        if why is not None:
            failures.append((request.argv, why))
    _report_failures(failures)
    print(f"{workload} seed {seed}: {attempted} requests traced; {len(tracer.spans)} spans recorded")

    stats = tracer.stats
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        for suffix, field in (("_calls", "calls"), ("_self_s", "self_s")):
            if name.endswith(suffix):
                metrics[name] = (getattr(stats.get(name[: -len(suffix)], LayerStat()), field), unit)
    revert = stats.get("series.revert", LayerStat()).calls
    metrics.update(
        {
            "algebra.max_terms": (tracer.growth.max_terms, "count"),
            "algebra.max_coeff_bits": (tracer.growth.max_coeff_bits, "bits"),
            "series.compose_per_revert": (
                tracer.edges.get(("series.revert", "series.compose"), 0) / revert if revert else 0.0,
                "ratio",
            ),
            "jfraction.expand_order_sum": (tracer.expand_order_sum, "count"),
            "verify.checks": (tracer.checks, "count"),
            "verify.checks_failed": (tracer.checks_failed, "count"),
            "verify.group_s": (stats.get("verify.group", LayerStat()).total_s, "s"),
            "verify.props_s": (stats.get("verify.props", LayerStat()).total_s, "s"),
            "verify.oeis_s": (stats.get("verify.oeis", LayerStat()).total_s, "s"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
            "trace.requests": (attempted, "count"),
        }
    )
    assert set(metrics) == set(PER_LAYER_UNITS), set(PER_LAYER_UNITS) ^ set(metrics)
    return _result(attempted, len(failures), metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "riordan" / "__init__.py").is_file():
        print(f"error: no riordan sources under {SRC}", file=sys.stderr)
        return 2

    # Harness and requests share one CPU, so the calibration kernel
    # measures the speed of the CPU the requests run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from riordan.oeis import FIXTURES  # OEIS data only, no computation

    reference = Reference(MAX_SIZES[args.workload], {a: fx.rows() for a, fx in FIXTURES.items()})
    run = traced_run if args.trace else load_run
    result = run(args.workload, args.seed, args.seconds, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

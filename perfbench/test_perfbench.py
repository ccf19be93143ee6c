"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Checks that the request streams are reproducible, that the reference
rejects a corrupted response and counts it as failed, that the tracer
reaches calls bound by name in other modules, and that the traced counts
confirm each workload's bypasses on the current program.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from reference import Reference, parse_rows  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MAX_SIZES, WORKLOADS, Request, deck_stream  # noqa: E402

from riordan import cli, families, verify  # noqa: E402
from riordan.algebra import MultiPoly, R  # noqa: E402
from riordan.oeis import FIXTURES  # noqa: E402

FIXTURE_ROWS = {a: fx.rows() for a, fx in FIXTURES.items()}


def _first(workload, seed, decks=3):
    return list(itertools.islice(deck_stream(workload, seed), decks))


@pytest.fixture(scope="module")
def reference():
    return Reference({"parametric": 36, "named": 22, "jf": 16}, FIXTURE_ROWS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_stream(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)


def _small(request: Request, n: int) -> Request:
    argv = list(request.argv)
    argv[argv.index("--N") + 1] = str(n)
    return Request(tuple(argv), request.expect[:-1] + (n,), request.reversed, request.fmt)


def _respond(request: Request) -> tuple[int, str]:
    code, out, _ = run.run_in_process(cli.main, request.argv)
    return code, out


def _corrupt(text: str) -> str:
    """Change the last digit 1..8 of the response's rows by one."""
    if text.startswith("{"):
        doc = json.loads(text)
        doc["rows"] = json.loads(_corrupt(json.dumps(doc["rows"])))
        return json.dumps(doc)
    for i in range(len(text) - 1, -1, -1):
        if text[i] in "12345678":
            return text[:i] + str(int(text[i]) + 1) + text[i + 1 :]
    raise AssertionError("no digit to corrupt")


@pytest.mark.parametrize("fmt", ["table", "json", "csv", "latex"])
@pytest.mark.parametrize(
    "argv, expect, n",
    [
        (("show", "--flavor", "ordinary", "--which", "f"), ("parametric", "ordinary", "f"), 9),
        (("show", "--flavor", "exponential", "--which", "gamma", "--reversed"), ("parametric", "exponential", "gamma"), 9),
        (("show", "--family", "permutahedron", "--which", "h"), ("named", "permutahedron", "h"), 9),
        (("jf", "--alpha", "2*y+1", "--beta", "i*r*y*(y+1)"), ("jf", "exp-face"), 8),
    ],
)
def test_reference_accepts_the_program_and_rejects_a_corruption(reference, argv, expect, n, fmt):
    request = Request(argv + ("--N", str(n), "--format", fmt), expect + (n,), "--reversed" in argv, fmt)
    code, out = _respond(request)
    assert reference.check(request, code, out) is None
    assert reference.check(request, code, _corrupt(out)) is not None
    assert reference.check(request, 1, out) is not None


@pytest.mark.parametrize(
    "argv, count",
    [(("verify", "oeis"), 12), (("verify", "props"), 12), (("oeis-check", "A008292", "A007318"), 2)],
)
def test_check_reference_needs_every_check_to_pass(reference, argv, count):
    request = Request(argv, ("checks", count))
    code, out = _respond(request)
    assert reference.check(request, code, out) is None
    assert reference.check(request, code, out.replace("[  ok]", "[FAIL]", 1)) is not None
    lines = out.splitlines()
    dropped = "\n".join(lines[1:]) + "\n"  # one check line fewer
    assert reference.check(request, code, dropped) is not None
    if argv[0] == "verify":
        summary = f"{count - 1}/{count - 1} checks passed"
        shortened = "\n".join(lines[1:-1] + [summary]) + "\n"
        assert reference.check(request, code, shortened) is not None


def test_verify_battery_pins_every_check_count():
    decks = _first("verify-battery", 5, 2)
    for deck in decks:
        kinds = [r.argv[:2] if r.argv[0] == "verify" else r.argv[:1] for r in deck]
        assert kinds.count(("verify", "group")) == 1 and kinds.count(("verify", "props")) == 2
        assert kinds.count(("verify", "oeis")) == 1 and kinds.count(("oeis-check",)) == 12
        checked = sorted(a for r in deck if r.argv[0] == "oeis-check" for a in r.argv[1:])
        assert checked == sorted(list(FIXTURES) * 2)  # every fixture twice per deck
        for r in deck:
            assert r.expect[0] == "checks" and r.expect[1] > 0
            if r.argv[0] == "oeis-check":
                assert r.expect == ("checks", len(r.argv) - 1)


@pytest.mark.parametrize("workload, decks", [("symbolic-show", 3), ("jfraction-expand", 3), ("verify-battery", 2)])
def test_a_run_covers_a_fixed_number_of_decks(workload, decks):
    assert workloads.decks_per_run(workload, 20) == decks
    assert workloads.decks_per_run(workload, 1) == 1


def test_a_corrupted_response_counts_as_failed(reference):
    good = _small(_first("symbolic-show", 3, 1)[0][0], 8)
    code, out = _respond(good)
    ok = run.ChildResult(code, out)
    bad = run.ChildResult(code, _corrupt(out))
    slow = run.ChildResult(-9, "", timed_out=True)
    done = [(good, ok, 0.1), (good, bad, 0.1), (good, slow, 0.1)]
    failures = run.check_responses(done, reference)
    assert len(failures) == 2  # the corrupted and the timed-out response
    assert failures[0][1].startswith("row ") and failures[1][1] == "timed out"


def test_reference_agrees_with_the_oeis_rows():
    rows = dict(FIXTURE_ROWS)
    rows["A008292"] = [list(r) for r in rows["A008292"]]
    rows["A008292"][3][1] += 1
    with pytest.raises(AssertionError):
        Reference({"named": 12}, rows)


def test_latex_rows_parse_with_spaces_for_products():
    text = "\\left(\n\\begin{array}{cc}\n 1 & 0 \\\\\n -2 r^2 + r - 1 & 3 r \\\\\n\\end{array}\n\\right)\n"
    assert parse_rows(text, "latex") == [[{0: 1}, {}], [{2: -2, 1: 1, 0: -1}, {1: 3}]]


def test_tracer_wraps_reflected_operators_and_rebinds_by_name():
    tracer = Tracer()
    originals = (verify.gamma_from_h, cli.h_matrix, MultiPoly.__rmul__)
    tracer.install()
    try:
        assert verify.gamma_from_h is families.gamma_from_h is not originals[0]
        assert cli.h_matrix is families.h_matrix is not originals[1]
        _ = 2 * R
        _ = R + 1
        _ = 1 + R
    finally:
        tracer.uninstall()
    assert (verify.gamma_from_h, cli.h_matrix, MultiPoly.__rmul__) == originals
    assert tracer.stats["algebra.mul"].calls == 1
    assert tracer.stats["algebra.add"].calls == 2


def test_metric_names_match_the_benchmark_definition(reference):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)


@pytest.mark.parametrize(
    "workload, absent, present",
    [
        ("symbolic-show", "jfraction.expand_calls", "arrays.tri_mul_calls"),
        ("jfraction-expand", "arrays.tri_mul_calls", "jfraction.expand_calls"),
    ],
)
def test_traced_counts_confirm_the_bypasses(workload, absent, present):
    # --seconds 10 covers one deck of either workload.
    result = run.traced_run(workload, 1, 10.0, Reference(MAX_SIZES[workload], FIXTURE_ROWS))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["trace.requests"]["value"] == len(_first(workload, 1, 1)[0])
    assert metrics[absent]["value"] == 0
    assert metrics[present]["value"] > 0
    assert metrics["arrays.matrix_calls"]["value"] == (0 if workload == "jfraction-expand" else metrics["trace.requests"]["value"])


def test_tail_latency_has_ten_samples_above_it():
    values = [float(v) for v in range(36, 0, -1)]
    tail, pct = run.tail_latency(values)
    assert pct == pytest.approx(100.0 * 26 / 36) and tail == pytest.approx(26.5)  # between the 26th and 27th of 36
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.hd_quantile(values, 0.5) == pytest.approx(18.5)

"""Acceptance suite: every criterion of the verify registry, one test each.

``pytest tests/test_acceptance.py -v`` lists each check by name; ``riordan
verify all`` runs the same list.  Every comparison is exact, with no
tolerances anywhere.
"""

import pytest
from hypothesis import given, settings, strategies as st

from riordan import verify
from riordan.cli import main
from riordan.verify import CHECKS, SUITES, Check

LAWS = [check for check in CHECKS if check.suite == "group"]


@pytest.mark.parametrize("check", CHECKS, ids=[check.name for check in CHECKS])
def test_check(check):
    result = check.run()
    assert result.ok, result.detail


@pytest.mark.parametrize("law", LAWS, ids=[law.name for law in LAWS])
@settings(max_examples=30)
@given(rng=st.randoms(use_true_random=False))
def test_each_group_law_holds_on_drawn_instances(law, rng):
    # Each law's trial (the first argument of its check's partial) on
    # instances that hypothesis draws and shrinks, beyond the seeded rounds
    # that verify runs.
    assert law.fn.args[0](rng)


def test_registry_shape():
    names = {suite: [c.name for c in CHECKS if c.suite == suite] for suite in SUITES}
    assert {suite: len(n) for suite, n in names.items()} == {"group": 10, "props": 12, "oeis": 12}
    assert all(len(set(n)) == len(n) for n in names.values())
    assert [c.suite for c in CHECKS] == sorted((c.suite for c in CHECKS), key=SUITES.index)


def _raise():
    raise ZeroDivisionError("boom")


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    # A check fails by returning False or by raising; either way the rest run.
    failing = next(c for c in CHECKS if c.suite == "props")
    for fn, detail in ((lambda: False, ""), (_raise, " -- ZeroDivisionError: boom")):
        monkeypatch.setattr(
            verify, "CHECKS", [Check(c.suite, c.name, fn) if c is failing else c for c in CHECKS]
        )
        status = main(["verify", "props"])
        out = capsys.readouterr().out
        assert status == 1
        assert f"[FAIL] props :: {failing.name}{detail}\n" in out
        assert out.count("[  ok]") == 11
        assert out.endswith("11/12 checks passed\n")

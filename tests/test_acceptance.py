"""Acceptance suite: every criterion of the verify registry, one test each.

``pytest tests/test_acceptance.py -v`` lists each check by name; ``riordan
verify all`` runs the same list.  Every comparison is exact, with no
tolerances anywhere.
"""

import pytest
from hypothesis import given, settings, strategies as st

from riordan import props, verify
from riordan.cli import main
from riordan.cold import face_array
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
    checks, failing = props.CHECKS, props.CHECKS[0]
    for fn, detail in ((lambda: False, ""), (_raise, " -- ZeroDivisionError: boom")):
        monkeypatch.setattr(props, "CHECKS", [Check(c.suite, c.name, fn) if c is failing else c for c in checks])
        status = main(["verify", "props"])
        out = capsys.readouterr().out
        assert status == 1
        assert f"[FAIL] props :: {failing.name}{detail}\n" in out
        assert out.count("[  ok]") == 11
        assert out.endswith("11/12 checks passed\n")


def test_a_wrong_face_array_product_fails_the_simplex_check(monkeypatch):
    # The check compares face_array(h), h times the binomial array B, with
    # the simplex face array as matrices: h B^2 must fail it.
    check = next(c for c in props.CHECKS if c.name.startswith("simplex face matrix"))
    assert check.fn()
    monkeypatch.setattr(props, "face_array", lambda h: face_array(face_array(h)))
    assert not check.fn()


@pytest.mark.parametrize("suite", ["props", "oeis"])
def test_each_suite_runs_its_own_registry_whatever_the_full_one_holds(capsys, monkeypatch, suite):
    # verify.CHECKS is only read: the suite prints the same lines before it
    # is first looked up, after, and after it is replaced.
    def lines():
        assert main(["verify", suite]) == 0
        return capsys.readouterr().out

    monkeypatch.delitem(vars(verify), "CHECKS")
    before = lines()
    assert "CHECKS" not in vars(verify)
    full = verify.CHECKS
    assert lines() == before
    monkeypatch.setattr(verify, "CHECKS", [Check(c.suite, c.name, lambda: False) for c in full])
    assert lines() == before
    assert before.endswith("12/12 checks passed\n")

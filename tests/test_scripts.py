"""Smoke tests of the tools under ``scripts/``."""

import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
code_lines = runpy.run_path(str(SCRIPTS / "request_footprint.py"))["code_lines"]


def test_request_footprint_lists_the_modules_of_an_oeis_check():
    argv = [sys.executable, str(SCRIPTS / "request_footprint.py"), "--repeats", "1", "oeis-check", "A055151"]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
    assert lines[:2] == ["riordan oeis-check A055151", f"{'module':22s} {'code lines':>10s} {'compile ms':>10s}"]
    modules = [line.split()[0] for line in lines[2:-1]]
    assert {"riordan.oeis", "riordan.verify"} <= set(modules)
    assert "riordan.cold" not in modules
    assert modules[-1] == "total"
    # One run is one sample: its three quartiles are its total.
    total = lines[-2].split()[-1]
    assert lines[-1] == f"per-run total compile ms over 1 runs: q1 {total}, median {total}, q3 {total}"


def test_code_lines_skip_comments_docstrings_and_text_data(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "ROWS = parse(\n"
        '    """\n'
        "    1 2\n"
        "    3 4\n"
        '    """,\n'
        ")\n"
        "def f(x):\n"
        '    """A docstring."""\n'
        "    return x + 1  # a trailing comment\n"
    )
    # ROWS = parse(, the line closing the text with its comma, ), def, return
    assert code_lines(str(source)) == 5

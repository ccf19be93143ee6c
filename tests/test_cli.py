import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riordan
from riordan import families
from riordan.algebra import R
from riordan.arrays import Kind, LowerTriMatrix, RiordanArray
from riordan import cli
from riordan.cli import MAX_N, main, parse_matrix_doc
from riordan.families import FamilySpec, f_matrix, family_matrix
from riordan.jfraction import MAX_EXPONENT

from golden_cases import GOLDEN_CASES

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


@pytest.mark.parametrize("filename", sorted(GOLDEN_CASES))
def test_golden_tables(capsys, filename):
    status, out, _ = run(capsys, GOLDEN_CASES[filename])
    assert status == 0
    assert out == (GOLDEN_DIR / filename).read_text()


def test_show_pascal_rows(capsys):
    status, out, _ = run(capsys, ["show", "--flavor", "ordinary", "--r", "0", "--which", "h", "--N", "4"])
    assert status == 0
    assert out.splitlines() == ["1", "1  1", "1  2  1", "1  3  3  1", "1  4  6  4  1"]


def test_simplex_and_hypercube_take_no_riordan_route(capsys, monkeypatch):
    def riordan_route(*args, **kwargs):
        raise AssertionError("the Riordan route ran outside its oracle role")

    monkeypatch.setattr(RiordanArray, "matrix", riordan_route)
    monkeypatch.setattr(LowerTriMatrix, "__mul__", riordan_route)
    monkeypatch.setattr(families, "gamma_from_h", riordan_route)
    for family in ("simplex", "hypercube"):
        for which in ("gamma", "h", "f"):
            status, out, _ = run(capsys, ["show", "--family", family, "--which", which, "--N", "12"])
            assert status == 0 and len(out.splitlines()) == 13


def test_show_gamma_table(capsys):
    status, out, _ = run(capsys, ["show", "--r", "1", "--which", "gamma", "--N", "4"])
    assert status == 0
    assert out.splitlines()[4].split() == ["1", "3", "1", "0", "0"]


def test_jf_command_matches_fixture_rows(capsys):
    status, out, _ = run(capsys, ["jf", "--alpha", "2*y+1", "--beta", "y*(y+1)", "--N", "3"])
    assert status == 0
    assert [line.split() for line in out.splitlines()] == [
        ["1"],
        ["1", "2"],
        ["1", "5", "5"],
        ["1", "9", "21", "14"],
    ]


def test_jf_aerated_double_factorials(capsys):
    status, out, _ = run(capsys, ["jf", "--alpha", "0", "--beta", "i", "--N", "6"])
    assert status == 0
    assert [line.split() for line in out.splitlines()] == [
        ["1"], ["0"], ["1"], ["0"], ["3"], ["0"], ["15"],
    ]


def test_jf_parse_error_exit_code(capsys):
    for alpha in ("2*+", f"y^{MAX_EXPONENT + 1}"):
        status, _, err = run(capsys, ["jf", "--alpha", alpha, "--beta", "i", "--N", "4"])
        assert status == 2
        assert "position" in err


def test_json_round_trip_symbolic(capsys, tmp_path):
    target = tmp_path / "doc.json"
    status, _, _ = run(
        capsys,
        ["export", "--which", "f", "--N", "5", "--output", str(target)],
    )
    assert status == 0
    doc = parse_matrix_doc(target.read_text())
    expected = f_matrix(FamilySpec(Kind.ORDINARY, R), 5)
    assert doc.size == 5 and doc.r == "r" and not doc.reversed_form
    assert [tuple(row) for row in doc.rows] == list(expected.rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["jf", "--alpha", "2*y+1", "--beta", "i*r*y*(y+1)", "--N", "3", "--format", "json"],
        ["show", "--which", "f", "--N", "4", "--format", "json"],
        ["show", "--family", "permutahedron", "--which", "h", "--N", "20", "--format", "json"],
    ],
)
def test_json_documents_render_back_unchanged(capsys, argv):
    status, out, _ = run(capsys, argv)
    assert status == 0
    assert parse_matrix_doc(out).render("json") == out


@pytest.mark.parametrize("flavor", ["ordinary", "exponential"])
def test_json_round_trip_is_lossless_at_large_n(capsys, flavor):
    # Row 100 holds r^50, beyond every bound of the jf expression parser.
    status, out, _ = run(capsys, ["export", "--flavor", flavor, "--which", "h", "--N", "100"])
    assert status == 0 and "r^50" in out
    doc = parse_matrix_doc(out)
    expected = family_matrix(FamilySpec(Kind(flavor), R), "h", 100)
    assert [tuple(row) for row in doc.rows] == list(expected.rows)


def test_json_round_trip_big_integers(capsys):
    status, out, _ = run(
        capsys,
        ["show", "--family", "permutahedron", "--which", "h", "--N", "20", "--format", "json"],
    )
    assert status == 0
    raw = json.loads(out)
    flat = [e for row in raw["rows"] for e in row]
    big = [e for e in flat if isinstance(e, str)]
    assert big, "expected entries beyond 2**53 encoded as strings"
    doc = parse_matrix_doc(out)
    from math import factorial

    assert sum(doc.rows[20]) == factorial(21)  # Eulerian row sums


def test_csv_format(capsys):
    status, out, _ = run(capsys, ["show", "--which", "f", "--N", "2", "--format", "csv"])
    assert status == 0
    assert out == '1\n2,1\n"r + 4","r + 4",1\n'


def test_latex_format(capsys):
    status, out, _ = run(capsys, ["show", "--r", "2", "--which", "h", "--N", "1", "--format", "latex"])
    assert status == 0
    assert out == "\\left(\n\\begin{array}{cc}\n 1 & 0 \\\\\n 1 & 1 \\\\\n\\end{array}\n\\right)\n"


def test_verify_named_suites(capsys):
    status, out, _ = run(capsys, ["verify", "oeis"])
    assert status == 0
    assert out.count("[  ok]") == 12
    assert "12/12 checks passed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["show", "--which", "f", "--N", "-1"],
        ["export", "--which", "f", "--N", "-1"],
        ["jf", "--alpha", "0", "--beta", "i", "--N", "-1"],
        ["fetch-bfile", "A000045", "--offline", "--limit", "-1"],
    ],
)
def test_negative_size_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-2]}: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["show", "--which", "f"], ["export", "--which", "f"], ["jf", "--alpha", "0", "--beta", "i"]])
def test_order_above_the_cap_is_a_usage_error(capsys, monkeypatch, command):
    def no_computation(*args):
        raise AssertionError("computed above the cap")

    monkeypatch.setattr(cli, "family_matrix", no_computation)
    monkeypatch.setattr(cli, "parse_index_poly", no_computation)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--N", str(MAX_N + 1)])
    assert exc.value.code == 2
    assert f"--N: must be at most MAX_N = {MAX_N}, got {MAX_N + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/dir/x.json", "."])
def test_export_write_failure_is_one_error_line(capsys, tmp_path, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    status, out, err = run(capsys, ["export", "--which", "h", "--N", "2", "--output", target])
    assert status == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", [["--flavor", "exponential"], ["--r", "3"], ["--r", "r"]])
def test_family_only_flags_are_rejected(capsys, flag):
    argv = ["show", "--family", "simplex", "--which", "h", "--N", "3"] + flag
    status, out, err = run(capsys, argv)
    assert status == 2 and out == ""
    assert "--flavor and --r apply only to the parametric family, not to simplex" in err


def test_oeis_check_command(capsys):
    status, out, _ = run(capsys, ["oeis-check", "A135278", "A038207"])
    assert status == 0
    assert out.count("[  ok]") == 2

    status, _, err = run(capsys, ["oeis-check", "A000000"])
    assert status == 2
    assert "no fixture" in err


def test_oeis_check_rejects_a_repeated_a_number(capsys):
    status, out, err = run(capsys, ["oeis-check", "A055151", "A008292", "A055151"])
    assert status == 2 and out == ""
    assert err == "error: A055151 given more than once\n"


def test_oeis_check_failure_exit_code(capsys, monkeypatch):
    import riordan.verify as verify_mod
    from riordan.oeis import TriangleFixture

    bad = dict(verify_mod.FIXTURES)
    fx = bad["A007318"]
    bad["A007318"] = TriangleFixture(
        fx.anumber, fx.description, fx.offset, fx.reading, fx.row_lengths, fx.values[:-1] + (999,)
    )
    monkeypatch.setattr(verify_mod, "FIXTURES", bad)

    status, out, _ = run(capsys, ["oeis-check", "A007318"])
    assert status == 1
    assert "[FAIL]" in out and "mismatch" in out


def test_fetch_bfile_offline_miss(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OEIS_BASE_URL", f"file://{tmp_path}")
    status, _, err = run(
        capsys,
        ["fetch-bfile", "A000045", "--cache-dir", str(tmp_path / "cache"), "--offline"],
    )
    assert status == 1
    assert "no cached b-file" in err


def test_fetch_bfile_via_file_url(capsys, tmp_path, monkeypatch):
    source = tmp_path / "remote" / "A000045"
    source.mkdir(parents=True)
    (source / "b000045.txt").write_text("0 0\n1 1\n2 1\n3 2\n4 3\n")
    monkeypatch.setenv("OEIS_BASE_URL", f"file://{tmp_path}/remote")
    cache = tmp_path / "cache"

    status, out, _ = run(capsys, ["fetch-bfile", "A000045", "--cache-dir", str(cache)])
    assert status == 0
    assert "5 terms" in out
    assert "0, 1, 1, 2, 3" in out


def _fresh_interpreter(code: str) -> list[str]:
    """Run code in a new interpreter without site packages; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(riordan.__path__[0]))
    argv = [sys.executable, "-S", "-c", code]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.splitlines()


def test_show_and_jf_load_only_the_modules_they_run():
    # Without cached bytecode a request compiles every module it imports.
    # No show, export or jf request runs riordan.cold; verify does.
    code = (
        "import contextlib, io, sys\n"
        "import riordan.cli as cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = cli.main(list(argv))\n"
        "    return code, out.getvalue().splitlines()[-1]\n"
        "run('show', '--which', 'f', '--N', '4')\n"
        "run('show', '--flavor', 'exponential', '--r', '2', '--which', 'gamma', '--N', '4')\n"
        "run('show', '--family', 'permutahedron', '--which', 'f', '--N', '4', '--format', 'latex')\n"
        "print(run('jf', '--alpha', '2*y+1', '--beta', 'i*r*y*(y+1)', '--N', '4'))\n"
        "unwanted = ('dataclasses', 'riordan.cold', 'riordan.verify', 'riordan.oeis', 'json', 'csv')\n"
        "print([name for name in unwanted if name in sys.modules])\n"
        "print(run('export', '--family', 'permutahedron', '--which', 'h', '--N', '4'))\n"
        "print('riordan.cold' in sys.modules)\n"
        "print(run('verify', 'oeis'))\n"
        "print('riordan.cold' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == [
        "(0, '1  6*r + 8  3*r^2 + 30*r + 24  6*r^2 + 48*r + 32  3*r^2 + 24*r + 16')",
        "[]",
        "(0, '}')",
        "False",
        "(0, '12/12 checks passed')",
        "True",
    ]


def test_the_package_resolves_its_public_names_lazily():
    code = (
        "import sys, riordan\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('riordan.'))\n"
        "print(loaded())\n"
        "from riordan import MultiPoly\n"
        "print(loaded())\n"
        "from riordan import *\n"
        "print(all(name in globals() for name in riordan.__all__))\n"
    )
    assert _fresh_interpreter(code) == ["[]", "['riordan.algebra']", "True"]
    for name in riordan.__all__:
        assert getattr(riordan, name) is not None, name
    assert riordan.FamilySpec is families.FamilySpec
    assert set(riordan.__all__) <= set(dir(riordan))
    with pytest.raises(AttributeError):
        riordan.no_such_name

import json
from pathlib import Path

import pytest

import riordan
from riordan import cli, cold, expr, families
from riordan.algebra import R
from riordan.arrays import LowerTriMatrix
from riordan.cli import main
from riordan.cold import RiordanArray, parse_matrix_doc
from riordan.expr import MAX_DEPTH, MAX_EXPONENT
from riordan.families import FamilySpec, Kind, f_matrix, family_matrix
from riordan.render import MAX_DIGITS, MAX_N

from golden_cases import GOLDEN_CASES, USAGE_CASES, usage_text
from process import fresh_interpreter, python, request

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


@pytest.mark.parametrize("filename", sorted(USAGE_CASES))
def test_help_and_usage_errors_match_their_goldens(monkeypatch, filename):
    # The parser adds a subcommand's arguments only when that subcommand
    # parses; every help text and usage error stays as when it built them all.
    monkeypatch.setenv("COLUMNS", "80")
    assert usage_text(USAGE_CASES[filename]) == (GOLDEN_DIR / filename).read_text()


def test_show_pascal_rows(capsys):
    status, out, _ = run(capsys, ["show", "--flavor", "ordinary", "--r", "0", "--which", "h", "--N", "4"])
    assert status == 0
    assert out.splitlines() == ["1", "1  1", "1  2  1", "1  3  3  1", "1  4  6  4  1"]


def test_simplex_and_hypercube_take_no_riordan_route(capsys, monkeypatch):
    def riordan_route(*args, **kwargs):
        raise AssertionError("the Riordan route ran outside its oracle role")

    monkeypatch.setattr(RiordanArray, "matrix", riordan_route)
    monkeypatch.setattr(LowerTriMatrix, "__mul__", riordan_route)
    monkeypatch.setattr(cold, "gamma_from_h", riordan_route)
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
        assert err.startswith("error: --alpha: ") and "position" in err
    status, out, err = run(capsys, ["jf", "--alpha", "1", "--beta", "y/3", "--N", "4"])
    assert (status, out, err) == (2, "", "error: --beta: unexpected '/' (at position 1)\n")


@pytest.mark.parametrize("alpha", ["(" * 300 + "1" + ")" * 300, "-" * 3000 + "1"], ids=["parentheses", "minus-signs"])
def test_deeply_nested_expressions_are_parse_errors(capsys, alpha):
    status, out, err = run(capsys, ["jf", f"--alpha={alpha}", "--beta", "1", "--N", "2"])
    assert (status, out) == (2, "")
    assert err.startswith(f"error: --alpha: nesting exceeds the maximum depth {MAX_DEPTH} (at position ")


def test_jf_prints_rational_weights_exactly(capsys):
    # Only a literal followed by '/' makes a Fraction.
    status, out, _ = run(capsys, ["jf", "--alpha", "1/2", "--beta", "0", "--N", "3"])
    assert (status, out.split()) == (0, ["1", "1/2", "1/4", "1/8"])
    status, out, _ = run(capsys, ["jf", "--alpha", "4/2", "--beta=-3/6", "--N", "3"])  # 8 - 3 paths of 2 * -1/2
    assert (status, out.split()) == (0, ["1", "2", "7/2", "5"])


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


@pytest.mark.parametrize("r", [2**53 - 1, 2**53, -(2**53), 99999999999999999999])
def test_json_round_trip_big_r(capsys, r):
    # r is encoded as every integer is: a JSON number below 2^53, else a string.
    status, out, _ = run(capsys, ["show", "--which", "h", "--N", "2", "--r", str(r), "--format", "json"])
    assert status == 0
    assert json.loads(out)["r"] == (r if abs(r) < 2**53 else str(r))
    doc = parse_matrix_doc(out)
    assert type(doc.r) is int and doc.r == r
    assert doc.render("json") == out


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


LONG = {  # requests whose rows outgrow MAX_DIGITS, and the first row that does
    "r of 1000 digits": (["show", "--r", "9" * 1000, "--which", "h", "--N", "12"], 10),
    "weight of 302 digits": (["jf", "--alpha", "1", "--beta", f"i*({2**1000}*r-r^30)", "--N", "40"], 30),
    "r of MAX_DIGITS digits": (["show", "--r", "9" * MAX_DIGITS, "--which", "h", "--N", "2"], 2),  # r + 2 in row 2
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv, row", LONG.values(), ids=list(LONG))
def test_numbers_of_more_than_max_digits_are_refused_by_row(capsys, argv, row, fmt):
    status, out, err = run(capsys, argv + ["--format", fmt])
    assert (status, out) == (2, "")
    assert err == f"error: row {row} holds a number of more than MAX_DIGITS = 4300 decimal digits (--N {row - 1} prints the rows before it)\n"
    status, out, _ = run(capsys, argv[:-1] + [str(row - 1), "--format", fmt])
    assert status == 0 and out


def test_a_number_of_max_digits_digits_is_printed(capsys):
    status, out, _ = run(capsys, ["show", "--r", "9" * MAX_DIGITS, "--which", "gamma", "--N", "2", "--format", "json"])
    assert status == 0 and json.loads(out)["rows"][2] == [1, "9" * MAX_DIGITS, 0]


def test_csv_format(capsys):
    status, out, _ = run(capsys, ["show", "--which", "f", "--N", "2", "--format", "csv"])
    assert status == 0
    assert out == '1\n2,1\n"r + 4","r + 4",1\n'


def test_latex_format(capsys):
    status, out, _ = run(capsys, ["show", "--r", "2", "--which", "h", "--N", "1", "--format", "latex"])
    assert status == 0
    assert out == "\\left(\n\\begin{array}{cc}\n 1 & 0 \\\\\n 1 & 1 \\\\\n\\end{array}\n\\right)\n"
    # A jf row may hold more entries than the expansion has rows.
    status, out, _ = run(capsys, ["jf", "--alpha", "y^5", "--beta", "0", "--N", "2", "--format", "latex"])
    assert status == 0
    rows = "".join(" " + " & ".join("01"[j == k] for j in range(11)) + " \\\\\n" for k in (0, 5, 10))
    assert out == "\\left(\n\\begin{array}{" + "c" * 11 + "}\n" + rows + "\\end{array}\n\\right)\n"


def test_verify_named_suites(capsys):
    status, out, _ = run(capsys, ["verify", "oeis"])
    assert status == 0
    assert out.count("[  ok]") == 12
    assert "12/12 checks passed" in out


@pytest.mark.parametrize("suite", ["props", "oeis"])
def test_verify_seed_applies_only_to_the_suites_that_draw(capsys, suite):
    # Only the group suite draws random instances; a seed it would ignore
    # is an error.
    err = f"error: --seed applies only to the group and all suites, not to {suite}\n"
    assert run(capsys, ["verify", suite, "--seed", "7"]) == (2, "", err)


def test_verify_group_takes_a_seed(capsys):
    status, out, _ = run(capsys, ["verify", "group", "--seed", "7"])
    assert status == 0 and out.endswith("10/10 checks passed\n")


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

    monkeypatch.setattr(families, "family_matrix", no_computation)
    monkeypatch.setattr(expr, "parse_index_poly", no_computation)
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


def test_oeis_check_reads_a_numbers_as_fetch_bfile_does(capsys):
    status, out, _ = run(capsys, ["oeis-check", "a55151", " A1263 "])
    assert status == 0
    assert out.splitlines() == [
        "[  ok] A055151: 66 entries over 11 rows match",
        "[  ok] A001263: 55 entries over 10 rows match",
    ]
    for argv, err in [
        (["A55151", "A055151"], "error: A055151 given more than once\n"),
        (["a1"], "error: no fixture for A000001\n"),
        (["A000000", "a0", "A999999"], "error: no fixture for A000000, A999999\n"),
        (["A055151", "55151"], "error: not an OEIS A-number: '55151'\n"),
        (["A-1"], "error: not an OEIS A-number: 'A-1'\n"),
    ]:
        assert run(capsys, ["oeis-check", *argv]) == (2, "", err)


def test_oeis_check_failure_exit_code(capsys, monkeypatch):
    import riordan.oeis as oeis_mod
    from riordan.oeis import TriangleFixture

    bad = dict(oeis_mod.FIXTURES)
    fx = bad["A007318"]
    bad["A007318"] = TriangleFixture(fx.anumber, fx.description, fx.offset, fx.row_lengths, fx.values[:-1] + (999,))
    monkeypatch.setattr(oeis_mod, "FIXTURES", bad)

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


def test_fetch_bfile_prints_the_normalized_a_number(capsys, tmp_path):
    (tmp_path / "A000045.txt").write_text("0 0\n1 1\n2 1\n")
    (tmp_path / "A000007.txt").write_text("0 1\nnot a pair here\n")
    argv = ["--offline", "--cache-dir", str(tmp_path)]
    assert run(capsys, ["fetch-bfile", "a45", *argv]) == (0, f"A000045: 3 terms cached in {tmp_path}\n0, 1, 1\n", "")
    # A read that fails still exits 1.
    err = "error: line 2: expected 'index value', got 'not a pair here'\n"
    assert run(capsys, ["fetch-bfile", "A7", *argv]) == (1, "", err)


def test_fetch_bfile_reads_the_cache_named_by_the_environment(capsys, tmp_path, monkeypatch):
    # With no --cache-dir, $OEIS_CACHE_DIR names the cache.
    (tmp_path / "A000045.txt").write_text("0 0\n1 1\n2 1\n")
    monkeypatch.setenv("OEIS_CACHE_DIR", str(tmp_path))
    assert run(capsys, ["fetch-bfile", "A000045", "--offline"]) == (0, f"A000045: 3 terms cached in {tmp_path}\n0, 1, 1\n", "")


@pytest.mark.parametrize("text", ["xyz", "A²", "A١٢"])
def test_text_that_is_no_a_number_is_a_usage_error(capsys, tmp_path, text):
    # Only ASCII digits make an A-number.  fetch-bfile exits 2 as oeis-check
    # does, before it looks at the cache.
    err = f"error: not an OEIS A-number: {text!r}\n"
    assert run(capsys, ["oeis-check", text]) == (2, "", err)
    assert run(capsys, ["fetch-bfile", text, "--offline", "--cache-dir", str(tmp_path / "cache")]) == (2, "", err)
    assert not any(tmp_path.iterdir())


# (argv, the module that defines the subcommand)
DISPATCH_CASES = [
    (["show", "--which", "f", "--N", "4"], "render"),
    (["jf", "--alpha", "2*y+1", "--beta", "i*r*y*(y+1)", "--N", "4"], "render"),
    (["verify", "oeis"], "verify"),
    (["oeis-check", "A055151"], "oeis"),
    (["fetch-bfile", "A45", "--offline", "--cache-dir", "."], "bfile"),
]
USAGE_MODULES = ["argparse", "gettext", "locale", "riordan.usage"]
WATCHED = {"riordan.render", "riordan.verify", "riordan.bfile", *USAGE_MODULES}


@pytest.mark.parametrize("entry", ["riordan", "riordan.cli"])
@pytest.mark.parametrize("argv, home", DISPATCH_CASES, ids=[argv[0] for argv, _ in DISPATCH_CASES])
def test_each_subcommand_runs_from_its_module_under_python_m(capsys, monkeypatch, request_dir, entry, argv, home):
    # Under ``python -m riordan.cli`` the cli module is __main__, and a
    # subcommand that imported riordan.cli would compile it a second time.
    # The show request is test_exit's "ok" case, and runs once for both.
    monkeypatch.chdir(request_dir)
    status, out, err, loaded = request(request_dir, entry, *argv)
    assert (status, out, err) == run(capsys, argv)
    assert loaded.count("riordan.cli") == (entry == "riordan")
    # oeis-check's module, riordan.oeis, is not watched: verify and
    # fetch-bfile load it too.
    assert f"riordan.{home}" in loaded and WATCHED.intersection(loaded) == {f"riordan.{home}"} & WATCHED


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["show", "--help"], 0), (["show", "--N", "3"], 2), (["jf", "--alpha", "0", "--N", "x"], 2)])
def test_help_and_usage_errors_load_argparse(request_dir, argv, code):
    status, out, err, loaded = request(request_dir, "riordan", *argv)
    assert (status, usage_text(argv)) == (code, f"exit {code}\n--- stdout\n{out}--- stderr\n{err}")
    # A subcommand's help or usage error also loads its module; the top-level help none.
    assert WATCHED.intersection(loaded) == {*USAGE_MODULES, *(["riordan.render"] if argv != ["--help"] else [])}


_RUN = (
    "import contextlib, io, sys\n"
    "import riordan.cli as cli\n"
    "def run(*argv):\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        code = cli.main(list(argv))\n"
    "    return code, out.getvalue().splitlines()[-1]\n"
    "def loaded(*names):\n"
    "    return [name for name in names if name in sys.modules]\n"
    "def package():\n"
    "    return sorted(name for name in sys.modules if name.startswith('riordan'))\n"
)


def _package(*names: str) -> str:
    """What ``package()`` prints when the riordan modules loaded are names
    and the three that every request loads."""
    return str(sorted(["riordan", "riordan.algebra", "riordan.cli", *names]))


def test_show_and_jf_load_only_the_modules_they_run():
    # Without cached bytecode a request compiles every module it imports.
    # No show, export or jf request runs riordan.cold; verify does.  show
    # runs no expression parser (riordan.expr), and jf no family.  None of
    # them makes a Fraction, so none loads fractions, and none needs help or
    # a usage error, so none loads argparse (nor gettext and locale, which
    # argparse loads).  A parametric show in any format runs neither series
    # nor triangles (riordan.series, riordan.arrays): its fraction takes a
    # row recurrence and its rows go straight to text, CSV without csv.
    # The first show, the first jf of each engine and the first check each
    # print their whole set of riordan modules, so that no module creeps in.
    unwanted = (
        "'dataclasses', 'fractions', 'riordan.cold', 'riordan.verify', 'riordan.oeis', 'csv', "
        "'argparse', 'gettext', 'locale', 'riordan.usage'"
    )
    parametric = (
        "    run('show', '--which', 'f', '--N', '4', '--format', fmt)\n"
        "    print(package())\n"
        "    run('show', '--flavor', 'exponential', '--r', '2', '--which', 'gamma', '--N', '4', '--format', fmt)\n"
        "    print(fmt, loaded('riordan.series', 'riordan.arrays', 'json', 'riordan.expr', " + unwanted + "))\n"
    )
    show = _package("riordan.families", "riordan.jfraction", "riordan.recurrence", "riordan.render")
    # Every show but the JSON one runs in one interpreter, the walk-shaped
    # permutahedron among them, so none of them may load json.  The
    # permutahedron walks y-packed and its rows are the digits of the walk's
    # values, so it loads no series either.
    show_first = _RUN + (
        "for fmt in ('table', 'csv', 'latex'):\n"
        + parametric
        + "run('show', '--family', 'permutahedron', '--which', 'f', '--N', '4', '--format', 'latex')\n"
        f"print(loaded('riordan.expr', 'json', 'riordan.series', {unwanted}))\n"
        "print(run('jf', '--alpha', '2*y+1', '--beta', 'i*r*y*(y+1)', '--N', '4'))\n"
        f"print(loaded({unwanted}))\n"
        "print(run('export', '--family', 'permutahedron', '--which', 'h', '--N', '4'))\n"
        "print(loaded('riordan.cold'))\n"
    )
    jf_row = "(0, '1  6*r + 8  3*r^2 + 30*r + 24  6*r^2 + 48*r + 32  3*r^2 + 24*r + 16')"
    formats = [show, "table []", show, "csv []", show, "latex []"]
    assert fresh_interpreter(show_first) == formats + ["[]", jf_row, "[]", "(0, '}')", "[]"]
    json_first = _RUN + "for fmt in ('json',):\n" + parametric
    assert fresh_interpreter(json_first) == [show, "json ['json']"]
    # A fraction free of i (const-face) and a Hermite fraction take the row
    # recurrence: no walk, so no series.
    jf_first = _RUN + (
        "run('jf', '--alpha', '2*y+1', '--beta', 'r*y*(y+1)', '--N', '4')\n"
        "print(package())\n"
        "print(run('jf', '--alpha', '2*y+1', '--beta', 'i*r*y*(y+1)', '--N', '4'))\n"
        "print(package())\n"
        f"print(loaded('riordan.families', 'riordan.arrays', 'riordan.series', 'json', {unwanted}))\n"
    )
    rows = _package("riordan.expr", "riordan.jfraction", "riordan.recurrence", "riordan.render")
    assert fresh_interpreter(jf_first) == [rows, jf_row, rows, "[]"]
    # A fraction of no shape (perm-face and perm-gamma, whose levels hold i)
    # takes the walk and no recurrence.  Perm-face walks y-packed and reads
    # its rows from the walk's values; perm-gamma, whose weights hold r,
    # walks on MultiPoly and reads them from a series.
    walk_first = _RUN + (
        "run('jf', '--alpha', '(i+1)*(2*y+1)', '--beta', 'i*(i+1)*y*(y+1)', '--N', '4')\n"
        "print(package())\n"
        "run('jf', '--alpha', 'i+1', '--beta', 'i*(i+1)*r*y', '--N', '4')\n"
        "print(package())\n"
    )
    walking = ("riordan.expr", "riordan.jfraction", "riordan.render", "riordan.walk")
    assert fresh_interpreter(walk_first) == [_package(*walking), _package(*walking, "riordan.series")]


def test_check_commands_load_only_the_modules_they_run():
    # Each check request runs in a fresh interpreter of its own, so that no
    # request inherits the modules of another.  No fixture check (oeis-check,
    # verify oeis) needs a group law or a props identity, riordan.cold, a
    # triangle (riordan.arrays), a Fraction or a series (riordan.series): it
    # compares the rows of its fraction, and a permutahedron's walk reads
    # them from its packed values.  oeis-check runs its checks in
    # riordan.oeis, without the registry of riordan.verify.  verify group
    # runs only its laws (riordan.laws): no fixture (riordan.oeis), no row
    # recurrence and no props identity.  verify props runs only its
    # identities (riordan.props), no group law.  No check loads the show/jf
    # output code (riordan.render), the expression parser (riordan.expr) or
    # argparse, which with gettext and locale only help and usage errors
    # load.  Each request prints its whole set of riordan modules, so that
    # no module creeps in.
    code = (
        "import contextlib, io, sys\n"
        "import riordan.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "lines = out.getvalue().splitlines()\n"
        "modules = ('riordan.cold', 'riordan.arrays', 'riordan.render', 'riordan.expr', 'fractions',\n"
        "           'argparse', 'gettext', 'locale', 'riordan.usage')\n"
        "loaded = [m for m in modules if m in sys.modules]\n"
        "print(code, sum(line.startswith('[  ok]') for line in lines), lines[-1], loaded)\n"
        "print(sorted(name for name in sys.modules if name.startswith('riordan')))\n"
    )

    def request(*argv: str) -> list[str]:
        status, out, err = python("-c", code, *argv)
        assert status == 0, err
        return out.splitlines()

    def package(names: str) -> str:
        return _package(*(f"riordan.{name}" for name in names.split()))

    assert request("verify", "oeis") == ["0 12 12/12 checks passed []", package("families jfraction oeis recurrence verify walk")]
    assert request("oeis-check", "A055151", "A135278") == [
        "0 2 [  ok] A055151: 66 entries over 11 rows match []",
        package("families jfraction oeis recurrence"),
    ]
    assert request("oeis-check", "A001147") == ["0 1 [  ok] A001147: 11 entries over 11 rows match []", package("jfraction oeis recurrence")]
    oracles = "['riordan.cold', 'riordan.arrays', 'fractions']"
    assert request("verify", "group") == [
        f"0 10 10/10 checks passed {oracles}",
        package("arrays cold families jfraction laws series verify walk"),
    ]
    assert request("verify", "props") == [
        f"0 12 12/12 checks passed {oracles}",
        package("arrays cold families jfraction oeis props recurrence series verify walk"),
    ]


def test_a_fixture_check_that_raises_prints_its_detail_under_oeis_check(capsys, monkeypatch):
    # One failing line, the same under oeis-check as the detail under verify
    # oeis: the exception's type and message; the other checks still run.
    import riordan.oeis as oeis_mod

    def broken(anumber):
        if anumber == "A055151":
            raise ZeroDivisionError("boom")
        return real(anumber)

    real = oeis_mod.fixture_report
    monkeypatch.setattr(oeis_mod, "fixture_report", broken)
    status, out, _ = run(capsys, ["oeis-check", "A055151", "A008292"])
    assert status == 1
    assert out.splitlines() == ["[FAIL] ZeroDivisionError: boom", "[  ok] A008292: 55 entries over 10 rows match"]
    status, out, _ = run(capsys, ["verify", "oeis"])
    assert status == 1
    assert "[FAIL] oeis :: A055151 regenerated from its construction -- ZeroDivisionError: boom\n" in out
    assert out.endswith("11/12 checks passed\n")


# (a spelling of a request that only argparse takes, the spelling that the
# option tables take)
ARGPARSE_SPELLINGS = {
    "equals": (["show", "--which", "f", "--N=6"], ["show", "--which", "f", "--N", "6"]),
    "abbreviation": (
        ["show", "--which", "h", "--N", "6", "--form", "table"],
        ["show", "--which", "h", "--N", "6", "--format", "table"],
    ),
    "repeat": (["show", "--which", "gamma", "--which", "f", "--N", "6"], ["show", "--which", "f", "--N", "6"]),
    "negative": (
        ["show", "--flavor", "ordinary", "--r", "-1", "--which", "f", "--N", "6"],
        ["show", "--family", "simplex", "--which", "f", "--N", "6"],
    ),
}


@pytest.mark.parametrize("spelling, canonical", ARGPARSE_SPELLINGS.values(), ids=list(ARGPARSE_SPELLINGS))
def test_spellings_only_argparse_takes_print_what_the_table_spelling_prints(capsys, spelling, canonical):
    assert cli._parse(spelling) is None and cli._parse(canonical) is not None
    status, out, err = run(capsys, canonical)
    assert status == 0 and len(out.splitlines()) == 7 and err == ""
    assert run(capsys, spelling) == (status, out, err)
    assert python("-m", "riordan", *spelling) == (status, out, err)


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
    assert fresh_interpreter(code) == ["[]", "['riordan.algebra']", "True"]
    for name in riordan.__all__:
        assert getattr(riordan, name) is not None, name
    assert riordan.FamilySpec is families.FamilySpec
    assert set(riordan.__all__) <= set(dir(riordan))
    with pytest.raises(AttributeError):
        riordan.no_such_name

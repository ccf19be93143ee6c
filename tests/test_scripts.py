"""Smoke tests of the tools under ``scripts/``."""

import contextlib
import functools
import io
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from riordan.oeis import FIXTURE_SOURCES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_script = functools.cache(lambda name: runpy.run_path(str(SCRIPTS / name)))
code_lines = _script("request_footprint.py")["code_lines"]


@functools.cache
def _run(script, *argv):
    """The stdout lines of one run of a script's ``main(argv)`` in this
    process, which must exit 0; each argv runs once, for every test that
    reads it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _script(script)["main"](list(argv)) == 0
    return out.getvalue().splitlines()


def _footprint(*request):
    """The footprint script's riordan table, its quartile line, its
    standard-library table and its wall-time table, each as lines, for one
    run of the request."""
    lines = _run("request_footprint.py", "--repeats", "1", *request)
    quartiles = next(i for i, line in enumerate(lines) if line.startswith("per-run total compile ms"))
    wall = next(i for i, line in enumerate(lines) if line.startswith("wall ms"))
    return lines[:quartiles], lines[quartiles], lines[quartiles + 1 : wall], lines[wall:]


def test_request_footprint_lists_the_modules_of_an_oeis_check():
    table, quartiles, stdlib, _ = _footprint("oeis-check", "A055151")
    assert table[:2] == ["riordan oeis-check A055151", f"{'module':22s} {'code lines':>10s} {'compile ms':>10s}"]
    modules = [line.split()[0] for line in table[2:]]
    assert "riordan.oeis" in modules
    assert "riordan.verify" not in modules and "riordan.cold" not in modules
    assert modules[-1] == "total"
    # One run is one sample: its three quartiles are its total.
    total = table[-1].split()[-1]
    assert quartiles == f"per-run total compile ms over 1 runs: q1 {total}, median {total}, q3 {total}"
    # The standard library beyond a bare interpreter's: neither argparse,
    # which only help and usage errors need, nor fractions, which no fixture
    # check needs.
    assert stdlib[0] == f"{'standard library':22s} {'import ms':>10s} {'cumul. ms':>10s}"
    names = [line.split()[0] for line in stdlib[1:-1]]
    assert "argparse" not in names and "fractions" not in names
    assert not [name for name in names if name.startswith("riordan")]
    assert stdlib[-1].split()[0] == "total"


def test_request_footprint_shows_what_a_fraction_costs():
    table, _, stdlib, _ = _footprint("jf", "--alpha", "(i+1)*(1/2+y^2)", "--beta", "i*(i+1)*1/3*y^2*(y^2+1)", "--N", "6")
    # The plan of the fraction cleared of its denominator, 6: the walk, on
    # packed ints.
    assert table[1] == "plan: walk, y-packed, width 32 bits, bound 26 bits, denominator 6"
    times = {line.split()[0]: tuple(map(float, line.split()[1:])) for line in stdlib[1:-1]}
    # fractions and what it imports, each listed before the module importing it.
    assert list(times).index("decimal") < list(times).index("fractions")
    assert {"numbers", "decimal"} < set(times)
    assert all(0 <= own <= cumulative for own, cumulative in times.values())
    own, cumulative = times["fractions"]
    assert cumulative > own > 0
    label, total = stdlib[-1].split()
    assert label == "total" and abs(float(total) - sum(own for own, _ in times.values())) <= 0.005 * len(times)


def test_request_footprint_splits_the_wall_time_of_a_request():
    # The assertions hold for any request: they read the oeis-check's run.
    *_, wall = _footprint("oeis-check", "A055151")
    assert wall[:2] == ["wall ms, medians over 1 runs", f"{'ends by':22s}" + "".join(
        f" {name:>8s}" for name in ("start", "imports", "run", "exit", "total"))]
    rows = {line[:22].strip(): [float(ms) for ms in line[22:].split()] for line in wall[2:]}
    assert list(rows) == ["riordan.cli.run", "sys.exit", "python -c pass"]
    for *stages, total in rows.values():
        # One run is one sample: its total is the sum of its stages.
        assert all(ms >= 0 for ms in stages) and abs(total - sum(stages)) <= 0.02
    assert rows["python -c pass"][1:3] == [0, 0]  # no imports, an empty run
    assert all(rows[label][1] > 0 and rows[label][2] > 0 for label in ("riordan.cli.run", "sys.exit"))


def test_request_footprint_ends_quietly_when_its_reader_has_gone():
    # Its output piped into a reader that has already gone, as `| head -3`
    # leaves it: no traceback and no "Exception ignored", the exit code
    # riordan.cli.run gives a closed pipe.
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "request_footprint.py"), "--tree"], stdout=write, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (120, "")


_tree = functools.partial(_run, "request_footprint.py", "--tree")


def test_request_footprint_counts_the_code_lines_of_the_tree():
    counts = {name.strip(): int(n) for name, n in (line.rsplit(None, 1) for line in _tree())}
    root, expected = SCRIPTS.parent, []
    for directory in ("scripts", "src/riordan", "tests"):
        modules = sorted(path.relative_to(root).as_posix() for path in (root / directory).rglob("*.py"))
        assert all(counts[name] == code_lines(str(root / name)) for name in modules)
        assert counts[f"{directory} total"] == sum(counts[name] for name in modules)
        expected += [*modules, f"{directory} total"]
    assert list(counts) == expected + ["total"]
    assert {"scripts/request_footprint.py", "src/riordan/cli.py", "tests/test_scripts.py"} < set(counts)
    assert counts["total"] == counts["scripts total"] + counts["src/riordan total"] + counts["tests total"]


def test_request_footprint_compares_the_code_lines_of_two_trees(tmp_path):
    # A baseline tree of two modules: cli.py, which this tree has too, and
    # one that this tree lacks; its tests/ is empty, and it has no scripts/.
    (tmp_path / "src" / "riordan").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "riordan" / "cli.py").write_text('"""Docstring."""\n\nx = 1\n')
    (tmp_path / "src" / "riordan" / "gone.py").write_text("x = 1\ny = 2\n")
    lines = _tree("--baseline", str(tmp_path / "src"))
    assert lines[0] == f"{'module':40s} {'base':>6s} {'this':>6s} {'delta':>6s}"
    rows = {line[:40].strip(): line[40:].split() for line in lines[1:]}
    this = {name.strip(): int(n) for name, n in (line.rsplit(None, 1) for line in _tree())}
    # The rows are this tree's, with the baseline's module in its sorted place.
    assert [name for name in rows if name != "src/riordan/gone.py"] == list(this)
    assert list(rows).index("src/riordan/gone.py") == list(rows).index("src/riordan/families.py") + 1
    assert rows["src/riordan/cli.py"] == ["1", str(this["src/riordan/cli.py"]), f"{this['src/riordan/cli.py'] - 1:+d}"]
    assert rows["src/riordan/gone.py"] == ["2", "-", "-2"]
    assert rows["src/riordan/algebra.py"] == ["-", str(this["src/riordan/algebra.py"]), f"+{this['src/riordan/algebra.py']}"]
    assert rows["scripts/compare_outputs.py"] == ["-", str(this["scripts/compare_outputs.py"]), f"+{this['scripts/compare_outputs.py']}"]
    assert rows["scripts total"][0] == rows["tests total"][0] == "0"
    assert rows["src/riordan total"][0] == rows["total"][0] == "3"
    for base, ours, delta in rows.values():
        assert int(delta) == (0 if ours == "-" else int(ours)) - (0 if base == "-" else int(base))
    # The tree against itself: the same counts twice, and no change.
    same = [[line[:40].strip(), *line[40:].split()] for line in _tree("--baseline", str(SCRIPTS.parent / "src"))[1:]]
    assert [(name, int(base)) for name, base, *_ in same] == list(this.items())
    assert all(base == ours and delta == "+0" for _, base, ours, delta in same)


def test_request_footprint_takes_a_baseline_only_as_a_src_directory(tmp_path):
    # A baseline must be the src directory of a tree, holding riordan/, in
    # every form; a request needs its argv with one as without.
    main = _script("request_footprint.py")["main"]
    for argv in (["--baseline", str(tmp_path), "show"], ["--baseline", str(tmp_path), "--tree"], ["--baseline", str(SCRIPTS.parent / "src")]):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2


def test_request_footprint_compares_what_a_request_loads_in_two_trees(tmp_path):
    # A baseline whose oeis module imports riordan.verify: its oeis-check
    # loads one module more.  Each tree prints its own table and quartiles,
    # from one run of each, and the ratios of the totals close the output.
    oeis = _copy_src(tmp_path) / "oeis.py"
    oeis.write_text(oeis.read_text().replace("from functools import cache\n", "from functools import cache\nimport riordan.verify\n", 1))
    lines = _run("request_footprint.py", "--repeats", "1", "--baseline", str(tmp_path), "oeis-check", "A055151")
    assert lines[:2] == ["riordan oeis-check A055151", f"baseline {tmp_path}"]
    split = lines.index(f"this tree {SCRIPTS.parent / 'src'}")
    tables = {}
    for label, table in (("baseline", lines[2:split]), ("this tree", lines[split + 1 : -2])):
        assert table[0] == f"{'module':22s} {'code lines':>10s} {'compile ms':>10s}"
        rows = {line.split()[0]: line.split()[1:] for line in table[1:-1]}
        total = table[-2].split()[-1]
        assert table[-1] == f"per-run total compile ms over 1 runs: q1 {total}, median {total}, q3 {total}"
        assert rows.pop("total") == [str(sum(int(n) for n, _ in rows.values())), total]
        tables[label] = rows
    assert set(tables["baseline"]) - set(tables["this tree"]) == {"riordan.verify"}
    assert set(tables["this tree"]) < set(tables["baseline"])
    assert all(tables["baseline"][name][0] == row[0] for name, row in tables["this tree"].items() if name != "riordan.oeis")
    for line, label in zip(lines[-2:], ("minimum", "median")):
        text, ratio = line.rsplit(" ", 1)
        assert text == f"ratio of the {label} compile totals (this tree over baseline):" and float(ratio) > 0


@pytest.mark.parametrize("suite, absent", [("group", "riordan.oeis riordan.props riordan.recurrence"), ("props", "riordan.laws")])
def test_check_times_import_only_the_registry_of_the_suite(suite, absent):
    # As verify group and verify props load them: each suite's own module,
    # and none of another suite's.
    code = _script("request_footprint.py")["CHECK_TIMES"] + "print(sorted(m for m in sys.modules if m.startswith('riordan')))\n"
    loaded = _script("request_footprint.py")["fresh_python"](code, [suite])
    assert f"'riordan.{'laws' if suite == 'group' else 'props'}'" in loaded
    assert not [name for name in absent.split() if f"'{name}'" in loaded]


_check_times = functools.partial(_run, "request_footprint.py", "--repeats", "1", "--checks")


def test_check_times_prints_each_check_of_the_suite():
    lines = _run("request_footprint.py", "--repeats", "3", "--checks", "oeis")
    assert lines[:2] == ["riordan verify oeis: cold CPU ms per check, min and median over 3 runs", f"{'min':>9s} {'median':>9s}  check"]
    rows = [line.split(None, 2) for line in lines[2:-1]]
    assert [name for *_, name in rows] == [
        f"oeis :: {anumber} regenerated from its construction" for anumber in FIXTURE_SOURCES
    ]
    assert all(float(least) <= float(median) for least, median, _ in rows)
    assert lines[-1].startswith("per-run suite total CPU ms over 3 runs: min ")
    least, q1, median, q3 = (float(part.split()[-1]) for part in lines[-1].split(":", 1)[1].split(","))
    # Each run's total is at least the sum of the checks' minimums.
    assert sum(float(m) for m, _, _ in rows) - 0.01 * len(rows) <= least <= q1 <= median <= q3


def test_check_times_compares_a_tree_against_a_baseline():
    # This tree against itself: one alternating run of each.
    lines = _check_times("oeis", "--baseline", str(SCRIPTS.parent / "src"))
    assert lines[:2] == [
        "riordan verify oeis: cold CPU ms per check, min and median over 1 alternating runs of each tree",
        f"{'base min':>9s} {'base med':>9s} {'this min':>9s} {'this med':>9s} {'r min':>6s} {'r pair':>6s} {'won':>5s}  check",
    ]
    rows = [line.split(None, 7) for line in lines[2:-4]]
    assert [name for *_, name in rows] == [
        f"oeis :: {anumber} regenerated from its construction" for anumber in FIXTURE_SOURCES
    ]
    for base_min, base, this_min, this, min_ratio, ratio, won, _ in rows:
        # One run is one sample: its minimum is its median, and one pair's
        # ratio is the ratio of the minimums, each of the unrounded times,
        # printed to two decimals; the pair is won where that is below 1.
        assert (base_min, this_min, min_ratio) == (base, this, ratio)
        assert won in ("0/1", "1/1") and (won == "1/1") == (float(ratio) < 1) or ratio == "1.000"
        base, this, ratio = float(base), float(this), float(ratio)
        assert (this - 0.005) / (base + 0.005) - 0.0005 <= ratio <= (this + 0.005) / (base - 0.005) + 0.0005
    totals = []
    for line, tree, column in ((lines[-4], "baseline", 1), (lines[-3], "this tree", 3)):
        assert line.startswith(f"per-run suite total CPU ms over 1 runs: {tree} min ")
        least, q1, median, q3 = (float(part.split()[-1]) for part in line.split(":", 1)[1].split(","))
        # One run is one sample: its minimum and quartiles are its total, the sum of its checks.
        assert least == q1 == median == q3 and abs(median - sum(float(row[column]) for row in rows)) <= 0.01 * len(rows)
        totals.append(median)
    text, ratio = lines[-2].rsplit(" ", 1)
    assert text == "ratio of the minimum totals (this tree over baseline):"
    assert abs(float(ratio) - totals[1] / totals[0]) <= 0.0005 + 0.01 / totals[0]
    # One pair: its ratio is the ratio of the totals, won if below 1.
    text, won = lines[-1].split(", ")
    assert text == f"median of the per-pair total ratios (this tree over baseline): {ratio}"
    assert won == f"this tree faster in {int(totals[1] < totals[0])} of 1 pairs"


def test_the_paired_statistic_is_the_median_ratio_of_back_to_back_runs():
    # Ratios 0.5, 1.25 and 0.5: the median is 0.5, and this tree won two pairs.
    assert _script("request_footprint.py")["paired"]([2.0, 4.0, 10.0], [1.0, 5.0, 5.0]) == (0.5, 2)


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


def test_functions_count_each_line_in_the_innermost_function_that_holds_it(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "@cache\n"
        "def f(x):\n"
        '    """A docstring."""\n'
        "    @wraps(x)\n"
        "    def g():\n"
        "        return x\n"
        "    return g\n"
        "class C:\n"
        "    def m(self):\n"
        "        pass\n"
    )
    # Each starts at its first decorator, as its code object does; f holds
    # its def, g's decorator and its return, and g its def and return.
    functions = _script("request_footprint.py")["functions"]
    assert functions(str(source)) == [("f", 1, 3), ("f.<locals>.g", 4, 2), ("C.m", 9, 2)]


def test_unused_lists_the_loaded_functions_a_request_never_calls():
    # show writes a table: render_latex is loaded and never called,
    # render_table is called.
    lines = _run("request_footprint.py", "--unused", "show", "--which", "f", "--N", "4")
    assert lines[:2] == ["riordan show --which f --N 4: functions loaded and never called", f"{'lines':>6s}  function"]
    rows = [line.split(None, 1) for line in lines[2:]]
    listed = [name for _, name in rows]
    assert "riordan.render.render_latex" in listed and "riordan.render.render_table" not in listed
    # The last line's total is that of the functions listed, and of the
    # modules' totals.
    sums = [sum(int(n) for n, name in rows[:-1] if (": never called, of " in name) is total) for total in (False, True)]
    assert rows[-1][1].startswith("all modules: never called, of ") and [int(rows[-1][0])] * 2 == sums


compare = _script("compare_outputs.py")
COMPARED = [
    ["show", "--which", "f", "--N", "3"],
    ["show", "--which", "f", "--N", "3", "--format", "json"],
    ["export", "--which", "h", "--N", "3", "--format", "csv", "--output", compare["OUTPUT"]],
    ["jf", "--alpha", "2*", "--beta", "0"],
]


# (argv, whether stdout is a closed pipe), run as processes.
PROCESSES = [(["show", "--which", "f", "--N", "3"], False), (["show", "--which", "f", "--N", "3"], True)]

# The library pass's arrays: one with integral entries, one with an entry
# that is not integral.
ARRAYS = [
    "binomial_array(Kind.EXPONENTIAL, 3)",
    "RiordanArray(TruncatedSeries([1, Fraction(1, 3)], 3), TruncatedSeries.x(3), Kind.EXPONENTIAL)",
]


def _compare(baseline):
    """Exit code and stdout lines of compare_outputs on COMPARED,
    PROCESSES and ARRAYS against baseline, and the number of processes it
    started.  This tree's side runs only in the first call in this
    interpreter, :func:`_itself`, which every compare test makes first: a
    later call starts only the baseline's runners and processes."""
    out, starts, start = io.StringIO(), [], subprocess.Popen.__init__

    def counted(self, *args, **kwargs):
        starts.append(args)
        start(self, *args, **kwargs)

    with mock.patch.object(subprocess.Popen, "__init__", counted), contextlib.redirect_stdout(out):
        code = compare["main"]([str(baseline)], commands=COMPARED, processes=PROCESSES, arrays=ARRAYS)
    return code, out.getvalue().splitlines(), len(starts)


_itself = functools.cache(lambda: _compare(SCRIPTS.parent / "src"))


def _copy_src(tmp_path):
    shutil.copytree(SCRIPTS.parent / "src" / "riordan", tmp_path / "riordan", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "riordan"


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    # Both trees' two runners and processes start.
    assert _itself() == (0, ["4 commands, 0 differ", "2 commands as processes, 0 differ", "2 arrays, 0 differ"], 4 + 2 * len(PROCESSES))


def test_compare_outputs_reports_each_command_whose_output_changed(tmp_path):
    _itself()  # this tree's side has run: only the baseline's starts below
    render = _copy_src(tmp_path) / "render.py"
    # Tables lose a space between columns, CSV quotes a second time.
    render.write_text(render.read_text().replace('"  ".join(', '" ".join(').replace("'\"' + str(e)", "'\"\"' + str(e)"))
    assert _compare(tmp_path) == (
        1,
        [
            "4 commands, 2 differ",
            "2 commands as processes, 1 differ",
            "2 arrays, 0 differ",
            "riordan show --which f --N 3: stdout differ",
            "riordan export --which h --N 3 --format csv --output export.out: written file differ",
            "riordan show --which f --N 3 (as a process): stdout differ",
        ],
        2 + len(PROCESSES),
    )


def test_compare_outputs_sees_how_a_process_ends(tmp_path):
    _itself()  # this tree's side has run: only the baseline's starts below
    # An entry that ends without flushing stdout: in-process nothing
    # differs, but its process prints nothing, and exits 0 where the pipe
    # is closed instead of reporting the failed flush.
    cli = _copy_src(tmp_path) / "cli.py"
    cli.write_text(cli.read_text().replace("sys.stdout.flush()", "pass"))
    assert _compare(tmp_path) == (
        1,
        [
            "4 commands, 0 differ",
            "2 commands as processes, 2 differ",
            "2 arrays, 0 differ",
            "riordan show --which f --N 3 (as a process): stdout differ",
            "riordan show --which f --N 3 (as a process, stdout closed): exit code, stderr differ",
        ],
        2 + len(PROCESSES),
    )


def test_compare_outputs_reports_each_library_call_whose_outcome_changed(tmp_path):
    _itself()  # this tree's side has run: only the baseline's starts below
    # The text of a NonIntegralEntry differs, in the matrix and in each
    # entry that raises it: a[1,0] = 1/3 and a[2,1] = 2/3 of g = 1 + x/3;
    # a[3,2] = 3!/2! 1/3 is 1.  And an exponential bgf's coefficients are
    # all MultiPolys: only the type of its constant term g_0 = 1 differs.
    # The binomial array is the family at r = 0: its f built with r/2
    # uncanonical holds a Fraction(0).
    src = _copy_src(tmp_path)
    arrays, cold = src / "arrays.py", src / "cold.py"
    arrays.write_text(arrays.read_text().replace("entry is not an integer", "entry is no integer"))
    cold.write_text(cold.read_text().replace("[self.g[0], *map(", "[*map(MultiPoly.coerce, self.g[:1]), *map(").replace("tidy(r * Fraction(1, 2))", "r * Fraction(1, 2)"))
    assert _compare(tmp_path) == (
        1,
        [
            "4 commands, 0 differ",
            "2 commands as processes, 0 differ",
            "2 arrays, 2 differ",
            f"{ARRAYS[0]}: bgf(0), bgf(3), f differ",
            f"{ARRAYS[1]}: matrix(3), entry(1, 0), entry(2, 1), bgf(0), bgf(3) differ",
        ],
        2 + len(PROCESSES),
    )

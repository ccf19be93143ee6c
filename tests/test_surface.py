"""What code outside the package relies on: the README's library example,
the oldest Python that ``pyproject.toml`` declares, the names that the
benchmark's tracer (``perfbench/tracer.py``) wraps, the package-root
names, and which old import paths of the names that moved to
:mod:`riordan.cold`, :mod:`riordan.verify`, :mod:`riordan.oeis`,
:mod:`riordan.bfile`, :mod:`riordan.expr` or :mod:`riordan.render` still
resolve.

The tracer looks its targets up by name when it is installed, so a renamed
or removed one would fail only a traced benchmark run, never this suite.
"""

import ast
import importlib
import re
from pathlib import Path
from types import FunctionType

import pytest

import riordan
from riordan import algebra, arrays, bfile, cli, cold, expr, families, jfraction, laws, oeis, props, render, series, verify
from process import fresh_interpreter

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(block, {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "12*r^2 + 72*r + 80"
    assert lines[-3:] == ["True"] * 3


def test_every_module_parses_as_the_oldest_python_it_requires():
    text = (README.parent / "pyproject.toml").read_text()
    (minor,) = re.findall(r'^requires-python = ">=3\.(\d+)"$', text, re.M)
    for path in sorted(Path(riordan.__file__).parent.rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, int(minor)))


# (class, the attributes the tracer replaces in the class's own __dict__)
TRACED_METHODS = [
    (algebra.MultiPoly, ("__mul__", "__rmul__", "__add__", "__radd__", "__init__")),
    (series.TruncatedSeries, ("__mul__", "__rmul__", "inverse", "compose", "revert", "exp")),
    (arrays.RiordanArray, ("matrix", "__mul__", "inverse")),
    (arrays.LowerTriMatrix, ("__mul__",)),
    (jfraction.JFraction, ("expand",)),
    (cli.OutputDoc, ("render",)),
]
TRACED_FUNCTIONS = [
    (arrays, ("triangle_from_series", "face_matrix")),
    (jfraction, ("parse_index_poly", "parse_poly")),
    (families, ("gamma_from_h", "h_matrix", "f_matrix", "gamma_matrix", "family_array", "named_triple")),
    (oeis, ("check_triangle", "check_sequence")),
    (verify, ("group_suite", "props_suite", "oeis_suite")),
]


@pytest.mark.parametrize("cls, attrs", TRACED_METHODS, ids=[c.__name__ for c, _ in TRACED_METHODS])
def test_traced_methods_exist(cls, attrs):
    assert all(callable(cls.__dict__.get(attr)) for attr in attrs)


@pytest.mark.parametrize("module, names", TRACED_FUNCTIONS, ids=[m.__name__ for m, _ in TRACED_FUNCTIONS])
def test_traced_functions_exist(module, names):
    assert all(callable(getattr(module, name, None)) for name in names)


def test_traced_functions_are_bound_where_the_tracer_checks_them():
    # The tracer rebinds a function in every module that holds it by name.
    assert cli.h_matrix is families.h_matrix
    assert verify.gamma_from_h is families.gamma_from_h


def test_the_battery_binds_no_traced_function_by_name():
    # The group laws (riordan.laws) and the props identities (riordan.props)
    # may be first imported while the tracer is installed, and a traced
    # function either bound by name then would keep its wrapper after the
    # tracer is removed, counting calls made outside the trace.
    traced = {name for _, names in TRACED_FUNCTIONS for name in names}
    for module in (laws, props):
        assert not traced & set(vars(module)), module.__name__


# The names each module defined before they moved, by (old module, new
# module): most to a module that fewer requests load, tidy and Kind out of
# the modules a show request skips.  Each imports from its new module only,
# except those in KEPT.
MOVED = {
    ("arrays", "cold"): "FACTORIAL_PAIR_WEIGHTS FACTORIAL_WEIGHTS KindMismatch RiordanArray UNIT_WEIGHTS "
    "UnsupportedKind WeightSequence binomial_array face_array face_matrix identity_array "
    "pascal_matrix",
    ("series", "cold"): "NonIntegralResult NonUnitConstantTerm NonzeroConstantTerm ZeroLinearTerm egf_to_ogf integer_coeffs",
    ("families", "cold"): "NotPalindromic dense_family_triple f_closed_row family_array gamma_closed_row "
    "gamma_from_h h_closed_row narayana_array narayana_closed",
    ("series", "algebra"): "tidy",
    ("arrays", "families"): "Kind",
    ("jfraction", "cold"): "binomial_transform",
    ("cli", "cold"): "parse_matrix_doc",
    ("cli", "verify"): "cmd_verify verify_options",
    ("cli", "oeis"): "cmd_oeis_check oeis_check_options",
    ("verify", "oeis"): "FIXTURE_SOURCES _aerated_double_factorials _triangle_fixture cmd_oeis_check oeis_check_options",
    ("cli", "bfile"): "cmd_fetch_bfile fetch_bfile_options",
    ("cli", "render"): "FORMATS MAX_N OutputDoc SAFE_INT _matrix_doc _r_value cmd_jf cmd_show export_options "
    "jf_options render_csv render_latex render_table show_options",
    ("jfraction", "expr"): "MAX_COEFF_BITS MAX_EXPONENT MAX_LITERAL_DIGITS ParseError _Parser _TOKEN "
    "_check_growth _growth parse_index_poly parse_poly",
    ("oeis", "bfile"): "BASE_URL_ENV BFile CACHE_DIR_ENV CacheMiss DEFAULT_BASE_URL MalformedLine "
    "NetworkUnavailable bfile_url fetch_bfile parse_bfile render_bfile",
}

# The old paths that still resolve, by (module, the module that defines the
# names).  The tracer looks the arrays, families and jfraction names and
# cli.OutputDoc up there (perfbench/tracer.py, Tracer.install), and
# perfbench's self-test reads verify.gamma_from_h and cli.h_matrix.
KEPT = {
    ("arrays", "cold"): "RiordanArray face_matrix",
    ("families", "cold"): "family_array gamma_from_h",
    ("jfraction", "expr"): "parse_index_poly parse_poly",
    ("cli", "render"): "OutputDoc",
    ("cli", "families"): "h_matrix",
    ("verify", "cold"): "gamma_from_h",
}


def test_removed_old_paths_raise_attribute_error():
    kept = {(module, name) for (module, _), names in KEPT.items() for name in names.split()}
    for (module, home), names in MOVED.items():
        old, new = (importlib.import_module(f"riordan.{m}") for m in (module, home))
        for name in names.split():
            assert name in vars(new), (home, name)
            if (module, name) not in kept:
                with pytest.raises(AttributeError, match=f"module 'riordan.{module}' has no attribute '{name}'"):
                    getattr(old, name)
                assert name not in vars(old)


def test_moved_names_resolve_lazily_to_their_new_module_and_stay_bound():
    # The tracer patches a name through its module's __dict__, so the first
    # lookup must leave it there.
    code = (
        "import importlib, sys\n"
        f"kept = {KEPT!r}\n"
        "for (module, home), names in kept.items():\n"
        "    mod = importlib.import_module('riordan.' + module)\n"
        "    print(module, any(name in mod.__dict__ for name in names.split()),\n"
        "          [m for m in ('riordan.laws', 'riordan.props', 'riordan.cold', 'riordan.expr', 'riordan.render')\n"
        "           if m in sys.modules])\n"
        "for (module, home), names in kept.items():\n"
        "    mod = sys.modules['riordan.' + module]\n"
        "    found = [getattr(mod, n) for n in names.split()]\n"
        "    new = sys.modules['riordan.' + home]\n"
        "    print(all(f is getattr(new, n) is mod.__dict__[n] for f, n in zip(found, names.split())))\n"
    )
    lines = fresh_interpreter(code)
    assert lines == [f"{module} False []" for module, _ in KEPT] + ["True"] * len(KEPT)


def test_the_full_registry_is_built_on_first_lookup_and_stays_bound():
    # verify.CHECKS loads the suites' modules only when looked up; it lists
    # their registries in suite order and stays bound, so it is built once.
    code = (
        "import sys\n"
        "from riordan import verify\n"
        "print('CHECKS' in vars(verify), [m for m in ('riordan.laws', 'riordan.props', 'riordan.oeis') if m in sys.modules])\n"
        "checks = verify.CHECKS\n"
        "from riordan import laws, props\n"
        "print(checks is vars(verify)['CHECKS'], checks[:22] == laws.CHECKS + props.CHECKS)\n"
        "print(sorted({c.suite for c in checks[22:]}), len(checks))\n"
    )
    assert fresh_interpreter(code) == ["False []", "True True", "['oeis'] 34"]


def test_package_root_names_are_their_defining_modules_objects():
    for module, names in riordan._EXPORTS:
        home = importlib.import_module(f"riordan.{module}")
        for name in names.split():
            value = getattr(riordan, name)
            assert value is vars(home)[name], name
            if isinstance(value, (type, FunctionType)):
                assert value.__module__ == home.__name__, name


@pytest.mark.parametrize(
    "module",
    [riordan, algebra, arrays, series, families, jfraction, expr, render, cli, verify, oeis, bfile, cold, laws, props],
)
def test_unknown_names_still_raise_attribute_error(module):
    with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'no_such_name'"):
        module.no_such_name
    assert getattr(module, "no_such_name", None) is None


def test_a_moved_public_name_loads_only_its_module_and_that_modules_imports():
    code = (
        "import sys\n"
        "from riordan import RiordanArray\n"
        "print(sorted(m for m in sys.modules if m.startswith('riordan')))\n"
        "print(RiordanArray.__module__)\n"
    )
    modules = "riordan riordan.algebra riordan.cold riordan.families riordan.jfraction riordan.series"
    assert fresh_interpreter(code) == [str(modules.split()), "riordan.cold"]

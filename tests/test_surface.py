"""What code outside the package relies on: the README's library example,
the names that the benchmark's tracer (``perfbench/tracer.py``) wraps, and
the old import paths of the names that moved to :mod:`riordan.cold`,
:mod:`riordan.verify` or :mod:`riordan.bfile`.

The tracer looks its targets up by name when it is installed, so a renamed
or removed one would fail only a traced benchmark run, never this suite.
"""

import re
from pathlib import Path

import pytest

import riordan
from riordan import algebra, arrays, cli, families, jfraction, oeis, series, verify
from test_cli import _fresh_interpreter

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(block, {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "12*r^2 + 72*r + 80"
    assert lines[-3:] == ["True"] * 3


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
    # riordan.battery may be first imported while the tracer is installed,
    # and a traced function it bound by name then would keep its wrapper
    # after the tracer is removed, counting calls made outside the trace.
    from riordan import battery

    traced = {name for _, names in TRACED_FUNCTIONS for name in names}
    assert not traced & set(vars(battery))


# The names each module defined before they moved to a module that no show,
# export or jf request loads, by (old module, new module).  Each still
# resolves at its old path.
MOVED = {
    ("arrays", "cold"): "FACTORIAL_PAIR_WEIGHTS FACTORIAL_WEIGHTS KindMismatch RiordanArray UNIT_WEIGHTS "
    "UnsupportedKind WeightSequence binomial_array face_array face_matrix identity_array "
    "pascal_matrix series_from_triangle",
    ("series", "cold"): "NonIntegralResult NonUnitConstantTerm NonzeroConstantTerm ZeroLinearTerm egf_to_ogf integer_coeffs",
    ("families", "cold"): "NotPalindromic dense_family_triple f_closed family_array gamma_closed gamma_from_h "
    "h_closed narayana_array narayana_closed",
    ("jfraction", "cold"): "binomial_transform",
    ("cli", "cold"): "parse_matrix_doc",
    ("cli", "verify"): "cmd_oeis_check cmd_verify",
    ("cli", "bfile"): "cmd_fetch_bfile",
    ("oeis", "bfile"): "BASE_URL_ENV BFile CACHE_DIR_ENV CacheMiss DEFAULT_BASE_URL MalformedLine "
    "NetworkUnavailable bfile_url fetch_bfile parse_bfile render_bfile",
}


def test_moved_names_resolve_lazily_to_their_new_module_and_stay_bound():
    # The tracer patches a name through its module's __dict__, so the first
    # lookup must leave it there.
    code = (
        "import importlib, sys\n"
        f"moved = {MOVED!r}\n"
        "for (module, home), names in moved.items():\n"
        "    mod = importlib.import_module('riordan.' + module)\n"
        "    print(module, any(name in mod.__dict__ for name in names.split()), 'riordan.' + home in sys.modules)\n"
        "for (module, home), names in moved.items():\n"
        "    mod, new = sys.modules['riordan.' + module], importlib.import_module('riordan.' + home)\n"
        "    print(all(getattr(mod, n) is getattr(new, n) and mod.__dict__[n] is getattr(new, n)\n"
        "              for n in names.split()))\n"
    )
    lines = _fresh_interpreter(code)
    assert lines == [f"{module} False False" for module, _ in MOVED] + ["True"] * len(MOVED)


@pytest.mark.parametrize("module", [riordan, algebra, arrays, series, families, jfraction, cli, verify, oeis])
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
    modules = "riordan riordan.algebra riordan.arrays riordan.cold riordan.families riordan.jfraction riordan.record riordan.series"
    assert _fresh_interpreter(code) == [str(modules.split()), "riordan.cold"]

"""What code outside the package relies on: the README's library example,
and the names that the benchmark's tracer (``perfbench/tracer.py``) wraps.

The tracer looks its targets up by name when it is installed, so a renamed
or removed one would fail only a traced benchmark run, never this suite.
"""

import re
from pathlib import Path

import pytest

from riordan import algebra, arrays, cli, families, jfraction, oeis, series, verify

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

"""Exact calculus of Pascal-like triangles built from Riordan arrays.

The package computes, entirely in exact arithmetic, the h-, f- (face) and
gamma-matrices attached to two parameterized Pascal-like families -- the
ordinary (1/(1-x), x(1+rx)/(1-x)) and exponential [e^x, x(1+rx/2)] -- plus
the classical simplex/hypercube/associahedron/permutahedron instances.
Every triangle is built by one of two routes -- three-term row recurrences
(the two families, and the simplex and hypercube, which are the ordinary
family at r = -1 and r = 0) or Jacobi continued fractions (associahedron,
permutahedron) -- and cross-checked against closed forms, Riordan group
products and embedded OEIS data.  Each triple stores only its gamma data;
its h and f members are derived by the paper's maps on J-fractions.

Modules: :mod:`~riordan.algebra` (integers, rationals, polynomials in r, y),
:mod:`~riordan.series` (truncated power series), :mod:`~riordan.arrays`
(the Riordan group and lower-triangular matrices), :mod:`~riordan.jfraction`
(Jacobi continued fractions), :mod:`~riordan.families` (the triangle
families), :mod:`~riordan.oeis` (fixtures and b-files), :mod:`~riordan.verify`
(the check battery), :mod:`~riordan.cli` (the ``riordan`` command).

Importing the package imports none of them.  Each name in ``__all__`` is
resolved on first use, from the one submodule that defines it, so a
program (or a ``riordan`` subcommand) loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The verify battery's suites and default seed.  They live here, not in
# riordan.verify, so that the command line can offer them without loading
# the battery.
SUITES = ("group", "props", "oeis")
DEFAULT_SEED = 20240831

# Public name -> the submodule that defines it.  Nothing is imported until a
# name is first looked up (PEP 562); ``from riordan import X`` then imports
# X's module and what that module imports, and nothing else.
_EXPORTS = {
    name: module
    for module, names in (
        ("algebra", "MultiPoly R Y"),
        (
            "arrays",
            "Kind LowerTriMatrix RiordanArray WeightSequence binomial_array face_array "
            "face_matrix identity_array pascal_matrix triangle_from_series",
        ),
        ("families", "FamilySpec GammaHFTriple family_array gamma_from_h named_triple"),
        ("jfraction", "IndexPoly JFraction binomial_transform parse_index_poly parse_poly"),
        ("oeis", "FIXTURES TriangleFixture check_triangle fetch_bfile parse_bfile"),
        ("series", "DEFAULT_ORDER TruncatedSeries egf_to_ogf"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    # Bound like an eager import: later lookups skip this function, and the
    # name is in the module's __dict__.
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Exact calculus of Pascal-like triangles built from Riordan arrays.

The package computes, entirely in exact arithmetic, the h-, f- (face) and
gamma-matrices attached to two parameterized Pascal-like families -- the
ordinary (1/(1-x), x(1+rx)/(1-x)) and exponential [e^x, x(1+rx/2)] -- plus
the classical simplex/hypercube/associahedron/permutahedron instances.
Every triangle is built by one of two routes -- three-term row recurrences
(the two families, and the simplex and hypercube, which are the ordinary
family at r = -1 and r = 0) or Jacobi continued fractions (associahedron,
permutahedron) -- and cross-checked against closed forms, Riordan group
products and embedded OEIS data.

Modules: :mod:`~riordan.algebra` (integers, rationals, polynomials in r, y),
:mod:`~riordan.series` (truncated power series), :mod:`~riordan.arrays`
(the Riordan group and lower-triangular matrices), :mod:`~riordan.jfraction`
(Jacobi continued fractions), :mod:`~riordan.families` (the triangle
families), :mod:`~riordan.oeis` (fixtures and b-files), :mod:`~riordan.cli`
(the ``riordan`` command).
"""

from .algebra import MultiPoly, R, Y
from .arrays import (
    Kind,
    LowerTriMatrix,
    RiordanArray,
    WeightSequence,
    binomial_array,
    face_array,
    face_matrix,
    identity_array,
    pascal_matrix,
    triangle_from_series,
)
from .families import (
    FamilySpec,
    GammaHFTriple,
    PolytopeTriple,
    family_array,
    gamma_from_h,
    gf_chain,
    named_triple,
)
from .jfraction import IndexPoly, JFraction, binomial_transform, parse_index_poly, parse_poly
from .oeis import FIXTURES, TriangleFixture, check_triangle, fetch_bfile, parse_bfile
from .series import DEFAULT_ORDER, TruncatedSeries, egf_to_ogf

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER",
    "FIXTURES",
    "FamilySpec",
    "GammaHFTriple",
    "IndexPoly",
    "JFraction",
    "Kind",
    "LowerTriMatrix",
    "MultiPoly",
    "PolytopeTriple",
    "R",
    "RiordanArray",
    "TriangleFixture",
    "TruncatedSeries",
    "WeightSequence",
    "Y",
    "binomial_array",
    "binomial_transform",
    "check_triangle",
    "egf_to_ogf",
    "face_array",
    "face_matrix",
    "family_array",
    "fetch_bfile",
    "gamma_from_h",
    "gf_chain",
    "identity_array",
    "named_triple",
    "parse_bfile",
    "parse_index_poly",
    "parse_poly",
    "pascal_matrix",
    "triangle_from_series",
    "__version__",
]

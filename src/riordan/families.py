"""The two parameterized Pascal-like families and named polytope triples.

The ordinary family is (1/(1-x), x(1+rx)/(1-x)); the exponential family is
[e^x, x(1+rx/2)].  Both reduce to Pascal's triangle at r = 0 and both are
Pascal-like for every r.  Each family carries a triple of triangles:

* the h-matrix -- the family matrix itself,
* the f-matrix (face matrix) -- its product with the binomial matrix,
* the gamma-matrix -- defined row-wise by the expansion
  h_n(y) = sum_k gamma[n,k] y^k (1+y)^(n-2k) of the palindromic row
  polynomials.

Every triple stores only its gamma J-fraction and derives h and f by the
paper's maps on J-fractions (:meth:`JFraction.gamma_to_h`,
:meth:`JFraction.h_to_f`, :meth:`JFraction.reversed`).  The ordinary
family's gamma fraction (1 - i; ry(2 - i)) stops at level 1, so its GF is
1/(1 - x - ry x^2); the exponential family's (1; i ry) is the Hermite
fraction, the OGF of the EGF exp(x + ry x^2/2).  The maps keep both shapes,
and :meth:`JFraction.rows` expands either shape by its three-term row
recurrence.  The Riordan route -- the array's matrix, the
face product and gamma extraction -- is kept as their oracle
(:func:`~riordan.cold.dense_family_triple`); so is the Motzkin walk
(:meth:`JFraction.expand`), which expands every fraction of another shape.

Closed forms for all three of the ordinary family's triangles, a row at
a time (:func:`~riordan.cold.gamma_closed_row`, ``h_closed_row``,
``f_closed_row``), check each route against the other:

    gamma[n,k] = C(n-k, n-2k) r^k
    h[n,k]     = sum_j C(k,j) C(n-j, n-k-j) r^j
    f[n,k]     = sum_i h[n,i] C(i,k)

Of the named polytopes, the simplex and the hypercube are the ordinary
family at r = -1 (h-array (1/(1-x), x)) and at r = 0 (Pascal's triangle),
so they take the row recurrences too.  The associahedron (type A) and the
permutahedron store a gamma J-fraction each, whose derived expansions hit
well-known OEIS triangles (:func:`named_triple`).  The associahedron's
three fractions have levels free of i, so they take a row recurrence as
well; the permutahedron's fit no shape, so they take the walk.  :func:`member_fraction` gives any member's
fraction, which ``show`` writes out row by row, and :func:`family_matrix`
its triangle (:meth:`JFraction.triangle`) for ``verify`` and the library.
:class:`Kind` names the flavours.  This module names
:class:`~riordan.arrays.LowerTriMatrix` only in annotations, which are not
evaluated, so ``show`` loads no :mod:`riordan.arrays`.

No ``show``, ``export`` or ``jf`` request runs the oracles -- the
family's Riordan array, the Riordan route, gamma extraction, the closed
forms and the Narayana array -- so they live in :mod:`riordan.cold`, which
only ``verify``, the library and the tests load.  They import from there;
only ``family_array`` and ``gamma_from_h``, which the benchmark's tracer
wraps here, also resolve from this module, on first use.
"""

import enum
from collections import namedtuple
from typing import Union

from . import Frozen, _lazy_names
from .algebra import MultiPoly, R, Y
from .jfraction import IndexPoly, JFraction

RValue = Union[int, MultiPoly]


class Kind(enum.Enum):
    """The flavour of a family, and of a Riordan array
    (:class:`~riordan.cold.RiordanArray`)."""

    ORDINARY = "ordinary"
    EXPONENTIAL = "exponential"
    GENERALIZED = "generalized"


class FamilySpec(Frozen):
    """Which family (ordinary/exponential) at which parameter value."""

    __slots__ = ("flavor", "r")

    def __init__(self, flavor: Kind = Kind.ORDINARY, r: RValue = R):
        if flavor is Kind.GENERALIZED:
            raise ValueError("families come in ordinary and exponential flavors only")
        self._init(flavor=flavor, r=r)


class GammaHFTriple(namedtuple("GammaHFTriple", "gamma h f")):
    """The gamma, h and f members of a triple: triangles
    (:class:`~riordan.arrays.LowerTriMatrix`), or the fractions
    (:class:`~riordan.jfraction.JFraction`) that expand to them."""

    __slots__ = ()


def family_fractions(spec: FamilySpec) -> GammaHFTriple:
    """The family's gamma J-fraction and the h and f fractions that
    gamma_to_h and h_to_f derive from it, f in plain form (row n is
    h_n(1 + y)).  The ordinary gamma fraction (1 - i; ry(2 - i)) stops at
    level 1, so its GF is 1/(1 - x - ry x^2); the exponential one (1; i ry)
    is the Hermite fraction, the OGF of the EGF exp(x + ry x^2/2)."""
    ry = MultiPoly.coerce(spec.r) * Y
    if spec.flavor is Kind.ORDINARY:
        gamma = JFraction(IndexPoly.from_coeffs([1, -1]), IndexPoly.from_coeffs([2 * ry, -ry]))
    else:
        gamma = JFraction(IndexPoly.constant(1), IndexPoly.from_coeffs([0, ry]))
    return _derived(gamma)


def _derived(gamma: JFraction) -> GammaHFTriple:
    h = gamma.gamma_to_h()
    return GammaHFTriple(gamma, h, h.h_to_f())


def h_matrix(spec: FamilySpec, size_n: int) -> "LowerTriMatrix":
    return family_matrix(spec, "h", size_n)


def f_matrix(spec: FamilySpec, size_n: int) -> "LowerTriMatrix":
    """The face matrix: row n is h_n(1 + y)."""
    return family_matrix(spec, "f", size_n)


def gamma_matrix(spec: FamilySpec, size_n: int) -> "LowerTriMatrix":
    return family_matrix(spec, "gamma", size_n)


def family_triple(spec: FamilySpec, size_n: int) -> GammaHFTriple:
    return GammaHFTriple(*(frac.triangle(size_n) for frac in family_fractions(spec)))


# -- named polytope triples ----------------------------------------------------

# The gamma fractions of the polytopes outside the ordinary family.
POLYTOPE_GAMMAS = {
    "associahedron": JFraction(IndexPoly.constant(1), IndexPoly.constant(Y)),
    "permutahedron": JFraction(IndexPoly.from_coeffs([1, 1]), IndexPoly.from_coeffs([0, Y, Y])),
}


def named_triple(name: str) -> GammaHFTriple:
    """The gamma, h and f J-fractions of 'associahedron' or 'permutahedron',
    h and f derived from the stored gamma fraction.  The f-fraction is in
    reversed form, the orientation of their OEIS face triangles."""
    if name not in POLYTOPE_GAMMAS:
        raise ValueError(f"no fraction triple for {name!r}")
    gamma, h, f = _derived(POLYTOPE_GAMMAS[name])
    return GammaHFTriple(gamma, h, f.reversed())


POLYTOPE_NAMES = ("simplex", "hypercube", "associahedron", "permutahedron")

# The polytopes that are members of the ordinary family.
POLYTOPE_SPECS = {"simplex": FamilySpec(Kind.ORDINARY, -1), "hypercube": FamilySpec(Kind.ORDINARY, 0)}


def member_fraction(family: FamilySpec | str, which: str) -> JFraction:
    """The J-fraction of the ``which`` ('gamma', 'h' or 'f') member of a
    family, given as a FamilySpec or as one of POLYTOPE_NAMES."""
    spec = POLYTOPE_SPECS.get(family, family)
    return getattr(named_triple(spec) if isinstance(spec, str) else family_fractions(spec), which)


def family_matrix(family: FamilySpec | str, which: str, size_n: int) -> "LowerTriMatrix":
    """Rows 0..size_n of that member's matrix: the rows of its J-fraction,
    whose plan picks the engine (:meth:`JFraction.plan`)."""
    return member_fraction(family, which).triangle(size_n)


# perfbench/tracer.py's Tracer.install() wraps these two by looking them up
# here (line 189); every other name moved to riordan.cold imports from there
# only.
__getattr__ = _lazy_names(globals(), ("cold", "family_array gamma_from_h"))

"""The two parameterized Pascal-like families and named polytope triples.

The ordinary family is (1/(1-x), x(1+rx)/(1-x)); the exponential family is
[e^x, x(1+rx/2)].  Both reduce to Pascal's triangle at r = 0 and both are
Pascal-like for every r.  Each family carries a triple of triangles:

* the h-matrix -- the family matrix itself,
* the f-matrix (face matrix) -- its product with the binomial matrix,
* the gamma-matrix -- defined row-wise by the expansion
  h_n(y) = sum_k gamma[n,k] y^k (1+y)^(n-2k) of the palindromic row
  polynomials.

Every triple stores only its gamma data and derives h and f by the paper's
maps on J-fractions (:meth:`JFraction.gamma_to_h`, :meth:`JFraction.h_to_f`,
:meth:`JFraction.reversed`).  A family stores the level pair (a, b) =
(1, ry), which the maps carry to (1+y, ry) for h and (2+y, r(1+y)) for f.
Each triangle's rows obey the three-term recurrence
P_n = a P_{n-1} + c_n b P_{n-2} of their generating function, with c_n = 1
for the ordinary flavor (GF 1/(1 - ax - bx^2)) and c_n = n - 1 for the
exponential one (the J-fraction with weights i*b, the OGF of the EGF
exp(ax + bx^2/2)).  The recurrence runs on packed integers, each entry of a
row (a polynomial in r) one int in slots of a proven width, and its
entries become MultiPoly only when the triangle is built
(:func:`_row_recurrence`).  The Riordan route -- the array's matrix, the face
product and gamma extraction -- is kept as their oracle
(:func:`~riordan.cold.dense_family_triple`).

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
well-known OEIS triangles (:func:`named_triple`).
:func:`family_matrix` is the one place that picks a triangle's route.

No ``show``, ``export`` or ``jf`` request runs the oracles -- the
family's Riordan array, the Riordan route, gamma extraction, the closed
forms and the Narayana array -- so they live in :mod:`riordan.cold`, which
only ``verify``, the library and the tests load.  They import from there;
only ``family_array`` and ``gamma_from_h``, which the benchmark's tracer
wraps here, also resolve from this module, on first use.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Union

from . import _lazy_names
from .algebra import MultiPoly, R, Y, _fma, _pack, _unpack
from .arrays import Kind, LowerTriMatrix, triangle_from_rows, triangle_from_series
from .jfraction import IndexPoly, JFraction
from .record import Frozen

RValue = Union[int, MultiPoly]


class FamilySpec(Frozen):
    """Which family (ordinary/exponential) at which parameter value."""

    __slots__ = ("flavor", "r")

    def __init__(self, flavor: Kind = Kind.ORDINARY, r: RValue = R):
        if flavor is Kind.GENERALIZED:
            raise ValueError("families come in ordinary and exponential flavors only")
        self._init(flavor=flavor, r=r)


class GammaHFTriple(NamedTuple):
    """The gamma, h and f members of a triple: triangles, or the fractions
    that expand to them."""

    gamma: LowerTriMatrix | JFraction
    h: LowerTriMatrix | JFraction
    f: LowerTriMatrix | JFraction


def family_fractions(spec: FamilySpec) -> GammaHFTriple:
    """The family's level pairs (a, b) of gamma, h and f as constant
    fractions: the stored gamma pair (1, ry) and what gamma_to_h and h_to_f
    make of it.  The f pair is in plain form, row n being h_n(1 + y)."""
    return _derived(JFraction(IndexPoly.constant(1), IndexPoly.constant(MultiPoly.coerce(spec.r) * Y)))


def _derived(gamma: JFraction) -> GammaHFTriple:
    h = gamma.gamma_to_h()
    return GammaHFTriple(gamma, h, h.h_to_f())


def _row_recurrence(spec: FamilySpec, which: str, size_n: int) -> LowerTriMatrix:
    """Rows 0..size_n of P_n = a P_{n-1} + c_n b P_{n-2}, P_0 = 1, P_1 = a,
    for the ``which`` pair (a, b) of the family, with c_n = 1 (ordinary) or
    n - 1 (exponential).

    The rows run on packed integers (see :mod:`riordan.algebra`), on D a
    and D^2 b for the common denominator D of the pair, so row n is D^n
    times the true one.  Run first on the sums of absolute coefficients of
    those weights, the recurrence bounds every coefficient of every row;
    the slot width is that bound's bits and a sign bit.
    """
    pair = getattr(family_fractions(spec), which)
    a, b = pair.alpha(0), pair.beta(0)
    den = lcm(*(c.denominator for p in (a, b) for _, c in p.items()))
    a, b = a * den, b * den**2

    def rows(a, b):
        out = [[1], a]
        for n in range(2, size_n + 1):
            cb = b if spec.flavor is Kind.ORDINARY else [(n - 1) * v for v in b]
            out.append(_fma(_fma([], a, out[-1]), cb, out[-2]))
        return out[: size_n + 1]

    width = max(row[0] for row in rows(*([sum(abs(c) for _, c in p.items())] for p in (a, b)))).bit_length() + 1
    out = []
    for n, row in enumerate(rows(_pack(a, width), _pack(b, width))):
        while row and not row[-1]:  # the triangle pads rows with int zeros
            row.pop()
        polys = {v: _unpack(v, width) for v in set(row)}  # h rows are palindromes
        if den != 1:
            from fractions import Fraction

            polys = {v: p * Fraction(1, den**n) for v, p in polys.items()}
        out.append([polys[v] for v in row])
    return triangle_from_rows(out, normalize=den != 1)


def h_matrix(spec: FamilySpec, size_n: int) -> LowerTriMatrix:
    return _row_recurrence(spec, "h", size_n)


def f_matrix(spec: FamilySpec, size_n: int) -> LowerTriMatrix:
    """The face matrix: row n is h_n(1 + y)."""
    return _row_recurrence(spec, "f", size_n)


def gamma_matrix(spec: FamilySpec, size_n: int) -> LowerTriMatrix:
    return _row_recurrence(spec, "gamma", size_n)


def family_triple(spec: FamilySpec, size_n: int) -> GammaHFTriple:
    return GammaHFTriple(
        gamma_matrix(spec, size_n), h_matrix(spec, size_n), f_matrix(spec, size_n)
    )


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


def family_matrix(family: FamilySpec | str, which: str, size_n: int) -> LowerTriMatrix:
    """Rows 0..size_n of the ``which`` ('gamma', 'h' or 'f') matrix of a
    family, given as a FamilySpec or as one of POLYTOPE_NAMES.

    Family specs, the simplex and the hypercube take the row recurrences;
    the associahedron and the permutahedron take their J-fractions.
    """
    spec = POLYTOPE_SPECS.get(family, family)
    if isinstance(spec, str):
        return triangle_from_series(getattr(named_triple(spec), which).expand(size_n))
    return {"gamma": gamma_matrix, "h": h_matrix, "f": f_matrix}[which](spec, size_n)


# perfbench/tracer.py's Tracer.install() wraps these two by looking them up
# here (line 189); every other name moved to riordan.cold imports from there
# only.
__getattr__ = _lazy_names(globals(), ("cold", "family_array gamma_from_h"))

"""Jacobi continued fractions with polynomial level coefficients.

A fraction

    1 / (1 - a0*x - b1*x^2 / (1 - a1*x - b2*x^2 / (1 - ...)))

is stored as two :class:`IndexPoly` values: ``alpha`` gives the level
coefficients ``a_i`` for i >= 0 and ``beta`` gives the x^2 weights ``b_i``
for i >= 1, so ``b_1`` is the weight paired with level 0.  Both are
polynomials in the level index ``i`` whose coefficients are polynomials in
r and y; every fraction in this package is of that shape, and the
associahedron-to-permutahedron transfer map is closed on it.  So are the
paper's three maps, which derive a polytope's h- and f-fractions from its
gamma-fraction (:meth:`JFraction.gamma_to_h`, :meth:`JFraction.h_to_f`,
and :meth:`JFraction.reversed` for rows read backwards).

Expansion counts weighted Motzkin paths (Flajolet 1980): [x^n] sums, over
the n-step paths from height 0 back to 0, the product of ``a_k`` per level
step at height k and ``b_{k+1}`` per fall from height k+1 to k
(:meth:`JFraction.expand`, the walk, O(N^2) height-steps).  Two shapes need
only O(N) rows, a three-term recurrence (on packed integers if its rows are
dense and its slots narrow, else on MultiPoly): a fraction that stops at
level 1 (alpha(1) =
beta(2) = 0) and the Hermite fraction (alpha free of i, beta = i*b).
:meth:`JFraction.rows` picks the engine from the fraction's shape, for
``jf`` and the family triangles (:meth:`JFraction.triangle`) alike.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest
from math import lcm
from typing import NamedTuple, Sequence, Union

from . import _lazy_names
from .algebra import MultiPoly, Y, _fma, _pack, _unpack
from .record import Frozen
from .series import TruncatedSeries, tidy

PolyLike = Union[int, "Fraction", MultiPoly]


class IndexPoly(Frozen):
    """Polynomial in the level index i with MultiPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[MultiPoly, ...]):
        self._init(coeffs=coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[PolyLike]) -> IndexPoly:
        clean = [MultiPoly.coerce(c) for c in coeffs]
        while clean and not clean[-1]:
            clean.pop()
        return cls(tuple(clean))

    @classmethod
    def constant(cls, value: PolyLike) -> IndexPoly:
        return cls.from_coeffs([value])

    @classmethod
    def index(cls) -> IndexPoly:
        """The polynomial i itself."""
        return cls.from_coeffs([0, 1])

    def __call__(self, i: int) -> MultiPoly:
        acc = MultiPoly.const(0)
        for c in reversed(self.coeffs):
            acc = acc * i + c
        return acc

    def degree(self) -> int:
        return max(len(self.coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: IndexPoly | PolyLike) -> IndexPoly:
        if not isinstance(other, IndexPoly):
            other = IndexPoly.constant(other)
        return IndexPoly.from_coeffs([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self) -> IndexPoly:
        return IndexPoly.from_coeffs([-c for c in self.coeffs])

    def __sub__(self, other: IndexPoly | PolyLike) -> IndexPoly:
        return self + (-other if isinstance(other, IndexPoly) else -MultiPoly.coerce(other))

    def __mul__(self, other: IndexPoly | PolyLike) -> IndexPoly:
        if not isinstance(other, IndexPoly):
            other = IndexPoly.constant(other)
        if self.is_zero() or other.is_zero():
            return IndexPoly(())
        out = [MultiPoly.const(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return IndexPoly.from_coeffs(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> IndexPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return reduce(IndexPoly.__mul__, [self] * exponent, IndexPoly.constant(1))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            mono = "" if power == 0 else ("i" if power == 1 else f"i^{power}")
            text = str(c)
            if mono:
                text = mono if text == "1" else (f"({text})*{mono}" if (" " in text or text.startswith("-")) else f"{text}*{mono}")
            pieces.append(text)
        return " + ".join(pieces)


class JFraction(NamedTuple):
    """Level coefficients alpha_i (i >= 0) and weights beta_i (i >= 1)."""

    alpha: IndexPoly
    beta: IndexPoly

    def expand(self, order: int) -> TruncatedSeries:
        """Truncated expansion as a series in x over MultiPoly.

        t[k] weighs the paths so far that end at height k.  A step maps it to
        t'[k] = t[k-1] + alpha(k) t[k] + beta(k+1) t[k+1], from t = [1], and
        coefficient n is t[0] after n steps.  Heights above min(n, order - n)
        cannot return to 0 by x^order and are dropped.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        a = [self.alpha(k) for k in range(order // 2 + 1)]
        b = [self.beta(k + 1) for k in range(order // 2 + 1)]
        t, coeffs = [1], [1]
        for n in range(1, order + 1):
            t = [0] + t + [0, 0]
            t = [t[k] + a[k] * t[k + 1] + b[k] * t[k + 2] for k in range(min(n, order - n) + 1)]
            coeffs.append(t[0])
        return TruncatedSeries(coeffs)

    def rows(self, order: int) -> list[list]:
        """Rows 0..order of the expansion, row n the y-coefficients of [x^n]
        up to its last nonzero one: each an int, a Fraction or a MultiPoly in r.

        Two shapes of fraction expand by a three-term row recurrence
        (:func:`_row_recurrence`) with a = alpha(0) and b = beta(1):
        alpha(1) = beta(2) = 0 stops the fraction at level 1, so its GF is
        1/(1 - ax - bx^2) (c_n = 1); alpha free of i and beta = i*b is the
        Hermite fraction, the OGF of the EGF exp(ax + bx^2/2) (c_n = n - 1).
        Every other fraction takes the walk (:meth:`expand`).
        """
        alpha, beta = self
        level_one = not alpha(1) and not beta(2)
        if level_one or not alpha.degree() and beta.degree() <= 1 and not beta(0):
            return _row_recurrence(alpha(0), beta(1), not level_one, order)
        return [[tidy(c) for c in MultiPoly.coerce(s).y_coefficients()] for s in self.expand(order)]

    def triangle(self, order: int) -> "LowerTriMatrix":
        """:meth:`rows` as a triangle.  Integer weights give integer rows, so
        only a fraction with a non-integer coefficient has every entry
        checked."""
        from .arrays import triangle_from_rows

        return triangle_from_rows(self.rows(order), normalize=_denominator(*self.alpha.coeffs, *self.beta.coeffs) != 1)

    def binomial_shift(self, k: PolyLike) -> JFraction:
        """The k-th binomial transform: every alpha shifted by k."""
        return JFraction(self.alpha + MultiPoly.coerce(k), self.beta)

    def transfer(self) -> JFraction:
        """Scale level i's alpha by (i+1) and weight beta_i by i(i+1).

        On the displayed sequences this is (a0, a1, a2, ...; b1, b2, b3, ...)
        -> (a0, 2 a1, 3 a2, ...; 2 b1, 6 b2, 12 b3, ...), the map carrying
        the associahedron fraction triple onto the permutahedron one.
        """
        return JFraction(
            IndexPoly.from_coeffs([1, 1]) * self.alpha,
            IndexPoly.from_coeffs([0, 1, 1]) * self.beta,
        )

    def gamma_to_h(self) -> JFraction:
        """alpha -> (1+y) alpha: the fraction with rows
        h_n(y) = (1+y)^n gamma_n(y/(1+y)^2).  A level step then weighs
        (1+y) alpha(y/(1+y)^2) and a rise and fall (1+y)^2 beta(y/(1+y)^2),
        so alpha must be free of y and every term of beta of y-degree 1
        (ValueError otherwise)."""
        if any(c.degree("y") for c in self.alpha.coeffs):
            raise ValueError(f"gamma_to_h needs alpha free of y, not {self.alpha}")
        if any(j != 1 for c in self.beta.coeffs for (_, j), _ in c.items()):
            raise ValueError(f"gamma_to_h needs every term of beta of y-degree 1, not {self.beta}")
        return JFraction(self.alpha * (Y + 1), self.beta)

    def h_to_f(self) -> JFraction:
        """y -> 1+y in every coefficient: the fraction with rows f_n(y) = h_n(1+y)."""
        return JFraction(*(IndexPoly.from_coeffs([c.substitute(y=Y + 1) for c in p.coeffs]) for p in self))

    def reversed(self) -> JFraction:
        """alpha -> y alpha(1/y), beta -> y^2 beta(1/y): the fraction with
        rows y^n p_n(1/y), read backwards.  Needs deg_y alpha <= 1 and
        deg_y beta <= 2 (ValueError otherwise)."""
        return JFraction(_reflect(self.alpha, 1, "alpha"), _reflect(self.beta, 2, "beta"))


def _row_recurrence(a: MultiPoly, b: MultiPoly, hermite: bool, order: int) -> list[list]:
    """Rows 0..order of P_n = a P_{n-1} + c_n b P_{n-2}, P_0 = 1, P_1 = a,
    with c_n = n - 1 if ``hermite`` and 1 otherwise, as :meth:`JFraction.rows`
    returns them.

    The rows run on packed integers (see :mod:`riordan.algebra`), on D a
    and D^2 b for the common denominator D of a and b, so row n is D^n
    times the true one.  Run first on the sums of absolute coefficients of
    those weights, the recurrence bounds every coefficient of every row;
    the slot width is that bound's bits and a sign bit, in whole bytes.
    Run with | for + on a bitset (bit i + j*stride for r^i y^j), it finds
    the terms the last row can have.  Packing gives every slot r^0..r^i of
    a y-coefficient the full width, so the rows run on MultiPoly instead
    when those terms fill fewer than half of their slots or the width
    exceeds 2048 bits, where coefficients of very different sizes share
    it.  Measured at N = 36-100, packing was 1.6-5x faster on dense rows
    of slots up to 1500 bits, 0.7-1x as fast at 1800-2300 bits, and up to
    12x slower from 2600 bits or on sparse rows.
    """
    den = _denominator(a, b)

    def rows(a, b):
        out = [[1], _fma([], a, [1])]
        for n in range(2, order + 1):
            out.append(_fma(_fma([], a, out[-1]), [[((n - 1) * c, s) for c, s in t] for t in b] if hermite else b, out[-2]))
        return out[: order + 1]

    bound = max(row[0] for row in rows(*([[(sum(abs(c) for _, c in p.items()), 0)]] for p in (a * den, b * den**2))))
    width = (bound.bit_length() + 8) // 8 * 8
    stride = order * max(a.degree("r"), b.degree("r")) + 1
    masks = [0, 1]  # P_{-1} = 0, P_0 = 1; each term r^i y^j of a shifts P_{n-1}'s, each of b P_{n-2}'s
    for _ in range(order):
        masks.append(reduce(int.__or__, [masks[-1 - k] << i + j * stride for k, w in enumerate((a, b)) for (i, j), _ in w.items()], 0))
    slots = sum((masks[-1] >> s & (1 << stride) - 1).bit_length() for s in range(0, masks[-1].bit_length(), stride))
    if width > 2048 or 2 * masks[-1].bit_count() < slots:
        polys = [MultiPoly.const(1), a]
        for n in range(2, order + 1):
            polys.append(a * polys[-1] + b * (n - 1 if hermite else 1) * polys[-2])
        return [[tidy(c) for c in p.y_coefficients()] for p in polys[: order + 1]]
    out = []
    for n, row in enumerate(rows(_pack(a * den, width), _pack(b * den**2, width))):
        while len(row) > 1 and not row[-1]:
            row.pop()
        polys = {v: _unpack(v, width) for v in set(row)}  # h rows are palindromes
        if den != 1:
            from fractions import Fraction

            polys = {v: tidy(p * Fraction(1, den**n)) for v, p in polys.items()}
        out.append([polys[v] for v in row])
    return out


def _denominator(*polys: MultiPoly) -> int:
    """The least common denominator of the polynomials' coefficients."""
    return lcm(*(c.denominator for p in polys for _, c in p.items()))


def _reflect(p: IndexPoly, degree: int, name: str) -> IndexPoly:
    """y^degree p(1/y), coefficient by coefficient."""
    if any(c.degree("y") > degree for c in p.coeffs):
        raise ValueError(f"row reversal needs {name} of y-degree at most {degree}, not {p}")
    return IndexPoly.from_coeffs([MultiPoly({(i, degree - j): v for (i, j), v in c.items()}) for c in p.coeffs])


# The parser is riordan.expr, which only jf requests load; perfbench/tracer.py's
# Tracer.install() wraps its two entry points by looking them up here
# (lines 186-187).
__getattr__ = _lazy_names(globals(), ("expr", "parse_index_poly parse_poly"))

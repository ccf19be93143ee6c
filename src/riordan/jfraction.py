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
step at height k and ``b_{k+1}`` per fall from height k+1 to k.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from . import _lazy_names
from .algebra import MultiPoly, Y
from .record import Frozen
from .series import TruncatedSeries

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
        n = max(len(self.coeffs), len(other.coeffs))
        mine = self.coeffs + (MultiPoly.const(0),) * (n - len(self.coeffs))
        theirs = other.coeffs + (MultiPoly.const(0),) * (n - len(other.coeffs))
        return IndexPoly.from_coeffs([a + b for a, b in zip(mine, theirs)])

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
        result = IndexPoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

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


def _reflect(p: IndexPoly, degree: int, name: str) -> IndexPoly:
    """y^degree p(1/y), coefficient by coefficient."""
    if any(c.degree("y") > degree for c in p.coeffs):
        raise ValueError(f"row reversal needs {name} of y-degree at most {degree}, not {p}")
    return IndexPoly.from_coeffs([MultiPoly({(i, degree - j): v for (i, j), v in c.items()}) for c in p.coeffs])


# The parser is riordan.expr, which only jf requests load; perfbench/tracer.py's
# Tracer.install() wraps its two entry points by looking them up here
# (lines 186-187).
__getattr__ = _lazy_names(globals(), ("expr", "parse_index_poly parse_poly"))

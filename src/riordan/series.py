"""Truncated formal power series with exact coefficients.

A :class:`TruncatedSeries` is a fixed vector of coefficients ``c[0..order]``
for ``c0 + c1*x + ... + c_order*x**order``; everything beyond ``order`` is
unknown and silently discarded.  Coefficients may be ``int``, ``Fraction``
or :class:`~riordan.algebra.MultiPoly` and may be mixed within one series.

Binary operations on series of different orders truncate to the shorter
order, and equality likewise compares up to the common order.  All
operations are pure; no floating point is ever involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add, mul
from typing import Sequence, Union

from .algebra import MultiPoly

DEFAULT_ORDER = 16

Coeff = Union[int, Fraction, MultiPoly]


class NonUnitConstantTerm(ValueError):
    """Series inversion needs an invertible constant term."""


class NonzeroConstantTerm(ValueError):
    """Composition/exp/reversion need a zero constant term."""


class ZeroLinearTerm(ValueError):
    """Reversion needs an invertible linear coefficient."""


class NonIntegralResult(ValueError):
    """A coefficient expected to be an integer is not."""


def _unit_inverse(c: Coeff, error: type[ValueError], what: str) -> Coeff:
    """Exact multiplicative inverse of a coefficient, or raise ``error``."""
    if isinstance(c, MultiPoly):
        if not c.is_constant() or not c:
            raise error(f"{what} must be an invertible constant, got {c}")
        value = c.constant_value()
        return 1 / value if value.denominator != 1 else _unit_inverse(int(value), error, what)
    if isinstance(c, Fraction):
        if not c:
            raise error(f"{what} is zero")
        return 1 / c
    if isinstance(c, int):
        if c in (1, -1):
            return c
        if c == 0:
            raise error(f"{what} is zero")
        raise error(f"{what} must be a unit in the integers, got {c}")
    raise TypeError(f"unsupported coefficient type: {c!r}")


class TruncatedSeries:
    """Power series in x truncated (inclusively) at a fixed order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Coeff], order: int | None = None):
        coeffs = tuple(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            if len(coeffs) < order + 1:
                coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
            else:
                coeffs = coeffs[: order + 1]
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = coeffs

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        return cls((0,), order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        return cls((1,), order)

    @classmethod
    def x(cls, order: int = DEFAULT_ORDER) -> TruncatedSeries:
        return cls((0, 1), order)

    @classmethod
    def ratio(
        cls,
        numerator: Sequence[Coeff],
        denominator: Sequence[Coeff],
        order: int = DEFAULT_ORDER,
    ) -> TruncatedSeries:
        """Expand a rational function given by polynomial coefficient lists."""
        return cls(numerator, order) * cls(denominator, order).inverse()

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Coeff, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, n: int) -> Coeff:
        return self._coeffs[n]

    def __iter__(self):
        return iter(self._coeffs)

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        return TruncatedSeries(self._coeffs[: order + 1])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return all(self._coeffs[i] == other._coeffs[i] for i in range(n + 1))
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self._coeffs[0] == other and all(c == 0 for c in self._coeffs[1:])
        return NotImplemented

    __hash__ = None  # equality is up-to-common-order, so not hashable

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self._coeffs) + "]"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: Coeff | TruncatedSeries) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            return _trusted(map(add, self._coeffs, other._coeffs))
        return _trusted((self._coeffs[0] + other,) + self._coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> TruncatedSeries:
        return _trusted([-c for c in self._coeffs])

    def __sub__(self, other: Coeff | TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def __rsub__(self, other: Coeff) -> TruncatedSeries:
        return (-self) + other

    def __mul__(self, other: Coeff | TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return _trusted([c * other for c in self._coeffs])
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        rb = b[n::-1]  # rb[n - j] == b[j]
        return _trusted(
            [sum(map(mul, a[1 : k + 1], rb[n - k + 1 :]), a[0] * b[k]) for k in range(n + 1)]
        )

    __rmul__ = __mul__

    # -- multiplicative / compositional structure ----------------------------

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse: self * self.inverse() == 1 up to order."""
        inv0 = _unit_inverse(self._coeffs[0], NonUnitConstantTerm, "constant term")
        a = self._coeffs
        out: list[Coeff] = [1 * inv0]
        for n in range(1, self.order + 1):
            acc = a[1] * out[n - 1]
            for i in range(2, n + 1):
                acc = acc + a[i] * out[n - i]
            out.append(-acc * inv0)
        return _trusted(out)

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(x)), requiring inner(0) == 0.  Horner evaluation.

        Step k computes r_k = c_k + x * r_{k+1} * (inner / x), and r_k is
        later multiplied by inner**k, whose valuation is k, so only its
        coefficients up to x**(n - k) can reach the result.  Each step keeps
        one more coefficient than the last: composing at order n costs
        n(n+1)(n+2)/6 coefficient products.
        """
        if inner._coeffs[0] != 0:
            raise NonzeroConstantTerm("inner series must have zero constant term")
        n = min(self.order, inner.order)
        c = self._coeffs
        result = _trusted((c[n],))
        if n:
            over_x = _trusted(inner._coeffs[1 : n + 1])
            for k in range(n - 1, -1, -1):
                result = _trusted((c[k],) + (result * over_x)._coeffs)
        return result

    def derivative(self) -> TruncatedSeries:
        """Formal derivative.  One order shorter, as the top term is unknown."""
        if self.order == 0:
            return TruncatedSeries((0,))
        return TruncatedSeries([i * c for i, c in enumerate(self._coeffs)][1:])

    def revert(self) -> TruncatedSeries:
        """Compositional inverse g with self(g(x)) == g(self(x)) == x.

        Newton iteration on truncated series; exactness is certified by the
        final composition check, which must hold coefficient-for-coefficient.
        """
        if self._coeffs[0] != 0:
            raise NonzeroConstantTerm("can only revert a series with zero constant term")
        if self.order < 1:
            raise ZeroLinearTerm("no linear coefficient available")
        inv1 = _unit_inverse(self._coeffs[1], ZeroLinearTerm, "linear coefficient")
        n = self.order
        ident = TruncatedSeries.x(n)
        # Pad the derivative back to full order; the fabricated top
        # coefficient only ever multiplies vanishing error terms.
        deriv = TruncatedSeries(self.derivative().coeffs, n)
        g = TruncatedSeries((0, inv1), n)
        for _ in range(n + 2):
            err = self.compose(g) - ident
            if all(c == 0 for c in err.coeffs):
                return g
            g = g - err * deriv.compose(g).inverse()
        raise ArithmeticError("series reversion did not converge")  # pragma: no cover

    def exp(self) -> TruncatedSeries:
        """Exponential sum(self**k / k!), requiring zero constant term.

        e = exp(f) solves e' = f' e, so e_0 = 1 and
        n e_n = sum_{k=1..n} k f_k e_{n-k}: O(order^2) coefficient products.
        """
        if self._coeffs[0] != 0:
            raise NonzeroConstantTerm("exp needs a zero constant term")
        scaled = [(k, k * c) for k, c in enumerate(self._coeffs) if k and c]
        out: list[Coeff] = [1]
        for n in range(1, self.order + 1):
            acc = 0
            for k, kc in scaled:
                if k > n:
                    break
                acc = acc + kc * out[n - k]
            out.append(acc * Fraction(1, n))
        return _trusted(out)


def _trusted(coeffs) -> TruncatedSeries:
    """A series from the non-empty coefficients an operation computed,
    without ``__init__``'s padding and checks."""
    series = object.__new__(TruncatedSeries)
    series._coeffs = tuple(coeffs)
    return series


def tidy(value: Coeff) -> Coeff:
    """Collapse integral Fractions to int and constant polynomials to scalars."""
    if isinstance(value, MultiPoly) and value.is_constant():
        value = value.constant_value()
    # int and MultiPoly first: isinstance(value, Fraction) is an ABC check.
    if type(value) is int or isinstance(value, MultiPoly):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def egf_to_ogf(series: TruncatedSeries) -> TruncatedSeries:
    """Rescale coefficient n by n!, turning an EGF into its ordinary form."""
    return TruncatedSeries([tidy(factorial(n) * c) for n, c in enumerate(series)])


def integer_coeffs(series: TruncatedSeries) -> list[int]:
    """Coefficients as plain ints; raises NonIntegralResult if any is not."""
    out = []
    for n, c in enumerate(series):
        c = tidy(c)
        if not isinstance(c, int):
            raise NonIntegralResult(f"coefficient of x^{n} is not an integer: {c}")
        out.append(c)
    return out

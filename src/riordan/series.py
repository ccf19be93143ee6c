"""Truncated formal power series with exact coefficients.

A :class:`TruncatedSeries` is a fixed vector of coefficients ``c[0..order]``
for ``c0 + c1*x + ... + c_order*x**order``; everything beyond ``order`` is
unknown and silently discarded.  Coefficients may be ``int``, ``Fraction``
or :class:`~riordan.algebra.MultiPoly` and may be mixed within one series.

Binary operations on series of different orders truncate to the shorter
order, and equality likewise compares up to the common order.  All
operations are pure; no floating point is ever involved.

Of the ``show``, ``export`` and ``jf`` requests, only those whose fraction
takes the Motzkin walk on MultiPoly (weights in r, as perm-gamma's, or
slots past ``MAX_WIDTH``) load this module: their rows come from the
series of :meth:`~riordan.jfraction.JFraction.expand`, which walks on
MultiPoly alone and is the tests' oracle of every engine.  A y-packed walk
reads its rows from its packed values, and no fixture check loads a series
either.  None of those requests inverts, composes, reverts or
exponentiates a series, so the bodies of those methods and of
:meth:`TruncatedSeries.ratio`, their exceptions,
:func:`~riordan.cold.egf_to_ogf` and :func:`~riordan.cold.integer_coeffs`
live in :mod:`riordan.cold`, loaded on first use.  There the ratio, the
inverse (the ratio 1 / s) and the exp are each one run of the recurrence
of a Riordan array's bivariate GF at y = 1, g / (1 - y f) and exp(y f),
with no series product, and the reversion of s solves against the rows of
the array (1, s), whose inverse is (1, sbar).  The methods stay here and
delegate to it; the other names import from there.
"""

from operator import add, mul
from typing import Sequence, Union

from . import _cold
from .algebra import MultiPoly, _is_scalar

DEFAULT_ORDER = 16

Coeff = Union[int, "Fraction", MultiPoly]


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
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls((0,), order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls((1,), order)

    @classmethod
    def x(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls((0, 1), order)

    @classmethod
    def ratio(
        cls,
        numerator: Sequence[Coeff],
        denominator: Sequence[Coeff],
        order: int = DEFAULT_ORDER,
    ) -> "TruncatedSeries":
        """Expand a rational function given by polynomial coefficient lists:
        the bivariate-GF recurrence at y = 1 (:func:`~riordan.cold.series_ratio`),
        with no series product or inverse."""
        return _cold().series_ratio(cls(numerator, order), cls(denominator, order))

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

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        return TruncatedSeries(self._coeffs, order)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return all(self._coeffs[i] == other._coeffs[i] for i in range(n + 1))
        if isinstance(other, MultiPoly) or _is_scalar(other):
            return self._coeffs[0] == other and all(c == 0 for c in self._coeffs[1:])
        return NotImplemented

    __hash__ = None  # equality is up-to-common-order, so not hashable

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self._coeffs) + "]"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Coeff | TruncatedSeries") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return _trusted(map(add, self._coeffs, other._coeffs))
        return _trusted((self._coeffs[0] + other,) + self._coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return _trusted([-c for c in self._coeffs])

    def __sub__(self, other: "Coeff | TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other: "Coeff | TruncatedSeries") -> "TruncatedSeries":
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

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse: self * self.inverse() == 1 up to order,
        the ratio 1 / self (:func:`~riordan.cold.series_ratio`)."""
        return _cold().series_ratio(TruncatedSeries.one(self.order), self)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)), requiring inner(0) == 0.  Horner evaluation."""
        return _cold().series_compose(self, inner)

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(x)) == g(self(x)) == x, from
        the rows of the Riordan array (1, self), with canonical
        coefficients (see :func:`~riordan.algebra.tidy`)."""
        return _cold().series_revert(self)

    def exp(self) -> "TruncatedSeries":
        """Exponential sum(self**k / k!), requiring zero constant term."""
        return _cold().series_exp(self)


def _trusted(coeffs) -> TruncatedSeries:
    """A series from the non-empty coefficients an operation computed,
    without ``__init__``'s padding and checks."""
    series = object.__new__(TruncatedSeries)
    series._coeffs = tuple(coeffs)
    return series


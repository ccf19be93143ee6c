"""The Riordan group and integer lower-triangular matrices.

An ordinary Riordan array is a pair of series ``(g, f)`` with ``g(0) = 1``,
``f(0) = 0`` and ``f'(0)`` a unit; its matrix has entries
``a[n,k] = [x^n] g * f**k``.  Exponential arrays carry an extra ``n!/k!``
prefactor and generalized arrays a ``c_n/c_k`` prefactor for a weight
sequence ``c``.  Ordinary and exponential arrays form groups under

    (g, f) . (u, v) = (g * u(f), v(f)),    (g, f)^-1 = (1/g(fbar), fbar),

where ``fbar`` is the compositional inverse of ``f``; generalized arrays
only support entry/matrix extraction here.

All matrices are dense lower triangles with exact entries (``int`` or
:class:`~riordan.algebra.MultiPoly` with integer coefficients); rationality
that fails to cancel is an error at this boundary.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Sequence, Union

from .algebra import MultiPoly, Y
from .record import Frozen
from .series import DEFAULT_ORDER, TruncatedSeries, tidy

Entry = Union[int, MultiPoly]


class IndexBeyondTruncation(IndexError):
    """Requested an entry beyond the truncation order of the series."""


class NonIntegralEntry(ValueError):
    """A matrix entry failed the integrality check."""


class KindMismatch(ValueError):
    """Group operations require both arrays to be of the same kind."""


class UnsupportedKind(ValueError):
    """The operation is not defined for this array kind."""


class Kind(enum.Enum):
    ORDINARY = "ordinary"
    EXPONENTIAL = "exponential"
    GENERALIZED = "generalized"


class WeightSequence(Frozen):
    """Nonzero weights c_n (with c_0 = 1) defining a generalized array."""

    __slots__ = ("name", "c")

    def __init__(self, name: str, c: Callable[[int], int | Fraction]):
        if c(0) != 1:
            raise ValueError("weight sequences are normalized so that c_0 = 1")
        self._init(name=name, c=c)

    def __call__(self, n: int) -> int | Fraction:
        value = self.c(n)
        if value == 0:
            raise ValueError(f"weight c_{n} is zero")
        return value


UNIT_WEIGHTS = WeightSequence("ones", lambda n: 1)
FACTORIAL_WEIGHTS = WeightSequence("factorial", factorial)
FACTORIAL_PAIR_WEIGHTS = WeightSequence(
    "factorial-pair", lambda n: factorial(n) * factorial(n + 1)
)


def _normalize_entry(value) -> Entry:
    """Force an exact entry to int / integer-coefficient MultiPoly."""
    value = tidy(value)
    if isinstance(value, int):
        return value
    if isinstance(value, MultiPoly):
        if not value.has_integer_coefficients():
            raise NonIntegralEntry(f"entry has non-integer coefficients: {value}")
        return value
    if isinstance(value, Fraction):
        raise NonIntegralEntry(f"entry is not an integer: {value}")
    raise TypeError(f"unsupported entry type: {value!r}")


class LowerTriMatrix:
    """Dense lower-triangular matrix; row n holds entries for k = 0..n."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[Entry]]):
        stored = tuple(tuple(row) for row in rows)
        for n, row in enumerate(stored):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
        self._rows = stored

    @property
    def rows(self) -> tuple[tuple[Entry, ...], ...]:
        return self._rows

    @property
    def size(self) -> int:
        return len(self._rows)

    def entry(self, n: int, k: int) -> Entry:
        if n >= self.size:
            raise IndexBeyondTruncation(f"row {n} beyond stored size {self.size}")
        return self._rows[n][k] if k <= n else 0

    def reversed(self) -> LowerTriMatrix:
        """Row-wise reversal within the triangular support."""
        return LowerTriMatrix(tuple(reversed(row)) for row in self._rows)

    def is_pascal_like(self) -> bool:
        """1 on both borders and palindromic in every stored row."""
        for row in self._rows:
            if row[0] != 1 or row[-1] != 1:
                return False
            if any(row[k] != row[len(row) - 1 - k] for k in range(len(row))):
                return False
        return True

    def __mul__(self, other: LowerTriMatrix) -> LowerTriMatrix:
        if not isinstance(other, LowerTriMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("matrix product needs equal sizes")
        rows = []
        for n in range(self.size):
            row = []
            for k in range(n + 1):
                acc = self._rows[n][k] * other._rows[k][k]
                for j in range(k + 1, n + 1):
                    acc = acc + self._rows[n][j] * other._rows[j][k]
                row.append(tidy(acc))
            rows.append(row)
        return LowerTriMatrix(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LowerTriMatrix):
            return NotImplemented
        return self.size == other.size and all(
            a == b for ra, rb in zip(self._rows, other._rows) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self._rows)

    def __repr__(self) -> str:
        return f"LowerTriMatrix({self.size} rows)"


def pascal_matrix(size_n: int) -> LowerTriMatrix:
    """The binomial matrix C(n, k) with rows 0..size_n."""
    return LowerTriMatrix([[comb(n, k) for k in range(n + 1)] for n in range(size_n + 1)])


def face_matrix(m: LowerTriMatrix) -> LowerTriMatrix:
    """The face matrix of m: the product m * C(n, k)."""
    return m * pascal_matrix(m.size - 1)


class RiordanArray(Frozen):
    """A Riordan array (g, f) of the given kind at fixed truncation order."""

    __slots__ = ("g", "f", "kind", "weights")

    def __init__(
        self,
        g: TruncatedSeries,
        f: TruncatedSeries,
        kind: Kind = Kind.ORDINARY,
        weights: WeightSequence | None = None,
    ):
        if g[0] != 1:
            raise ValueError(f"g must have constant term 1, got {g[0]}")
        if f[0] != 0:
            raise ValueError("f must have zero constant term")
        if f.order < 1 or f[1] == 0:
            raise ValueError("f must have a nonzero linear coefficient")
        if kind is Kind.GENERALIZED and weights is None:
            raise ValueError("generalized arrays need a weight sequence")
        self._init(g=g, f=f, kind=kind, weights=weights)

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)

    def _prefactor(self, n: int, k: int) -> int | Fraction:
        if self.kind is Kind.ORDINARY:
            return 1
        if self.kind is Kind.EXPONENTIAL:
            return factorial(n) // factorial(k)
        return Fraction(Fraction(self.weights(n)), Fraction(self.weights(k)))

    def entry(self, n: int, k: int) -> Entry:
        """Exact entry a[n, k]; zero above the diagonal."""
        if n > self.order:
            raise IndexBeyondTruncation(f"n = {n} beyond truncation order {self.order}")
        if k > n:
            return 0
        p = self.g
        for _ in range(k):
            p = p * self.f
        return _normalize_entry(self._prefactor(n, k) * p[n])

    def matrix(self, size_n: int) -> LowerTriMatrix:
        """Lower triangle of entries for n, k = 0..size_n."""
        if size_n > self.order:
            raise IndexBeyondTruncation(
                f"size {size_n} beyond truncation order {self.order}"
            )
        # Rows beyond size_n never reach the matrix: build g * f**k to size_n.
        f = self.f.truncate(size_n)
        cols = [self.g.truncate(size_n)]
        for _ in range(size_n):
            cols.append(cols[-1] * f)
        return LowerTriMatrix(
            [
                [_normalize_entry(self._prefactor(n, k) * cols[k][n]) for k in range(n + 1)]
                for n in range(size_n + 1)
            ]
        )

    # -- group structure ---------------------------------------------------

    def _require_group_kind(self):
        if self.kind is Kind.GENERALIZED:
            raise UnsupportedKind("generalized arrays do not support group operations")

    def __mul__(self, other: RiordanArray) -> RiordanArray:
        if not isinstance(other, RiordanArray):
            return NotImplemented
        self._require_group_kind()
        other._require_group_kind()
        if self.kind is not other.kind:
            raise KindMismatch(f"cannot mix {self.kind.value} and {other.kind.value}")
        return RiordanArray(
            self.g * other.g.compose(self.f), other.f.compose(self.f), self.kind
        )

    def inverse(self) -> RiordanArray:
        self._require_group_kind()
        fbar = self.f.revert()
        return RiordanArray(self.g.compose(fbar).inverse(), fbar, self.kind)

    # -- generating functions ------------------------------------------------

    def bgf(self, order: int | None = None) -> TruncatedSeries:
        """Bivariate generating function as a series in x over MultiPoly.

        Ordinary: g / (1 - y f).  Exponential: g * exp(y f), whose x^n
        coefficient times n! is the row polynomial sum_k a[n,k] y^k.
        """
        if order is None:
            order = self.order
        if order > self.order:
            raise IndexBeyondTruncation(f"order {order} beyond truncation {self.order}")
        g = self.g.truncate(order)
        yf = self.f.truncate(order) * Y
        if self.kind is Kind.ORDINARY:
            return g * (1 - yf).inverse()
        if self.kind is Kind.EXPONENTIAL:
            return g * yf.exp()
        raise UnsupportedKind("generalized arrays have no bivariate GF here")


def identity_array(kind: Kind = Kind.ORDINARY, order: int = DEFAULT_ORDER) -> RiordanArray:
    return RiordanArray(TruncatedSeries.one(order), TruncatedSeries.x(order), kind)


def binomial_array(kind: Kind = Kind.ORDINARY, order: int = DEFAULT_ORDER) -> RiordanArray:
    """Pascal's triangle: (1/(1-x), x/(1-x)) or, exponentially, [e^x, x]."""
    if kind is Kind.ORDINARY:
        g = TruncatedSeries.ratio([1], [1, -1], order)
        f = TruncatedSeries.ratio([0, 1], [1, -1], order)
        return RiordanArray(g, f, kind)
    if kind is Kind.EXPONENTIAL:
        return RiordanArray(TruncatedSeries.x(order).exp(), TruncatedSeries.x(order), kind)
    raise UnsupportedKind("the binomial array is ordinary or exponential")


def face_array(a: RiordanArray) -> RiordanArray:
    """Riordan-level face matrix: the product with the binomial array."""
    return a * binomial_array(a.kind, a.order)


def triangle_from_series(series: TruncatedSeries) -> LowerTriMatrix:
    """Rows of a bivariate series: row n lists the y-coefficients of [x^n]."""
    return triangle_from_rows(MultiPoly.coerce(c).y_coefficients() for c in series)


def triangle_from_rows(rows: Iterable[list[Entry]], normalize: bool = True) -> LowerTriMatrix:
    """The triangle whose row n lists the y-coefficients of a row polynomial,
    up to its last nonzero one, which must be at most y^n.  Every entry must
    be an integer or an integer-coefficient polynomial (else
    NonIntegralEntry); ``normalize=False`` skips that check for entries
    already in that form.  Rows are checked in order, as they are produced.
    """
    out = []
    for n, entries in enumerate(rows):
        if len(entries) > n + 1:
            raise ValueError(f"coefficient of x^{n} has y-degree {len(entries) - 1} > n")
        if normalize:
            entries = [_normalize_entry(e) for e in entries]
        out.append(entries + [0] * (n + 1 - len(entries)))
    return LowerTriMatrix(out)


def series_from_triangle(m: LowerTriMatrix) -> TruncatedSeries:
    """The ordinary bivariate series whose x^n coefficient is row n in y."""
    coeffs = []
    for n, row in enumerate(m.rows):
        poly = MultiPoly.const(0)
        for k, e in enumerate(row):
            poly = poly + MultiPoly.coerce(e) * (Y**k)
        coeffs.append(poly)
    return TruncatedSeries(coeffs)

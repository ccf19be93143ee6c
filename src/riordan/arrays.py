"""Integer lower-triangular matrices, the form every triangle is built in.

All matrices are dense lower triangles with exact entries (``int`` or
:class:`~riordan.algebra.MultiPoly` with integer coefficients); rationality
that fails to cancel is an error at this boundary.

The Riordan group (:class:`~riordan.cold.RiordanArray`, its weight
sequences, the identity, binomial and face arrays), the binomial and face
matrices and :func:`~riordan.cold.series_from_triangle` serve only as the
oracle of ``verify`` and the tests, so they live in :mod:`riordan.cold`,
which no ``show``, ``export`` or ``jf`` request loads, and so does the body
of the matrix product.  Their names still import from here: this module
resolves them on first use.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import _cold, _lazy_names
from .algebra import MultiPoly
from .series import TruncatedSeries, tidy

Entry = Union[int, MultiPoly]


class IndexBeyondTruncation(IndexError):
    """Requested an entry beyond the truncation order of the series."""


class NonIntegralEntry(ValueError):
    """A matrix entry failed the integrality check."""


class Kind(enum.Enum):
    ORDINARY = "ordinary"
    EXPONENTIAL = "exponential"
    GENERALIZED = "generalized"


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
        return _cold().tri_mul(self, other)

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


__getattr__ = _lazy_names(
    globals(),
    (
        "cold",
        "FACTORIAL_PAIR_WEIGHTS FACTORIAL_WEIGHTS KindMismatch RiordanArray UNIT_WEIGHTS "
        "UnsupportedKind WeightSequence binomial_array face_array face_matrix identity_array "
        "pascal_matrix series_from_triangle",
    ),
)

"""Integer lower-triangular matrices, the form every triangle is built in.

All matrices are dense lower triangles with exact entries (``int`` or
:class:`~riordan.algebra.MultiPoly` with integer coefficients); rationality
that fails to cancel is an error at this boundary.  The library and the
oracles build triangles; ``show`` writes its rows straight from their
fraction and loads neither this module nor :mod:`riordan.series`, which
this one names only in an annotation.  How rows of y-coefficients become a
triangle's rows (zero-padded, none deeper in y than its index) is written
once, in :func:`riordan.jfraction._triangle_rows`, which a fraction's
:meth:`~riordan.jfraction.JFraction.triangle`, :func:`triangle_from_series`,
``show`` and the fixture checks share.

The Riordan group (:class:`~riordan.cold.RiordanArray`, its weight
sequences, the identity, binomial and face arrays) and the binomial and
face matrices serve only as the oracle of ``verify`` and the tests, so
they live in :mod:`riordan.cold`, which no ``show``, ``export`` or ``jf``
request loads.  They import from there; only ``RiordanArray`` and
``face_matrix``, which the benchmark's tracer wraps here, also resolve
from this module, on first use.
"""

from operator import mul
from typing import Iterable, Sequence, Union

from . import _lazy_names
from .algebra import MultiPoly, _is_scalar, tidy

Entry = Union[int, MultiPoly]


class IndexBeyondTruncation(IndexError):
    """Requested an entry beyond the truncation order of the series."""


class NonIntegralEntry(ValueError):
    """A matrix entry failed the integrality check."""


def _normalize_entry(value) -> Entry:
    """Force an exact entry to int / integer-coefficient MultiPoly."""
    if type(value) is int:
        return value
    value = tidy(value)
    if isinstance(value, int):
        return value
    if isinstance(value, MultiPoly):
        if not value.has_integer_coefficients():
            raise NonIntegralEntry(f"entry has non-integer coefficients: {value}")
        return value
    if _is_scalar(value):  # a Fraction: tidy made every integral one an int
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
        if n < 0 or k < 0:
            raise IndexError(f"no entry ({n}, {k}): indices are non-negative")
        if n >= self.size:
            raise IndexBeyondTruncation(f"row {n} beyond stored size {self.size}")
        return self._rows[n][k] if k <= n else 0

    def reversed(self) -> "LowerTriMatrix":
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

    def __mul__(self, other: "LowerTriMatrix") -> "LowerTriMatrix":
        """Entry (n, k) is one sum over j = k..n of self[n, j] other[j, k],
        with other's column k read from row k down once, before the
        products."""
        if not isinstance(other, LowerTriMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("matrix product needs equal sizes")
        cols = [[row[k] for row in other._rows[k:]] for k in range(other.size)]
        return LowerTriMatrix(
            [tidy(sum(map(mul, row[k:], cols[k]))) for k in range(n + 1)] for n, row in enumerate(self._rows)
        )

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


def triangle_from_series(series: "TruncatedSeries") -> LowerTriMatrix:
    """Rows of a bivariate series: row n lists the y-coefficients of [x^n],
    each an integer or an integer-coefficient polynomial (else
    NonIntegralEntry), shaped as :func:`riordan.jfraction._triangle_rows`
    shapes a fraction's rows."""
    from .jfraction import _triangle_rows

    rows = [list(map(_normalize_entry, MultiPoly.coerce(c).y_coefficients())) for c in series]
    return LowerTriMatrix(_triangle_rows(rows))


# perfbench/tracer.py's Tracer.install() wraps these two by looking them up
# here (lines 179-183); every other name moved to riordan.cold imports from
# there only.
__getattr__ = _lazy_names(globals(), ("cold", "RiordanArray face_matrix"))

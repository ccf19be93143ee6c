"""The code that no ``show``, ``export`` or ``jf`` request runs.

Production builds every triangle by row recurrences or J-fractions
(:mod:`riordan.families`).  The paper's Riordan-group machinery survives
as the oracle that ``verify`` and the tests check them against, and lives
here with the other code only they use: the Riordan group, the families'
oracle routes (Riordan route, gamma extraction, closed forms, Narayana
array), the bodies of the series operations inverse, compose, revert, exp
and derivative, of :meth:`MultiPoly.parse` and of the matrix product, and
the ``verify``, ``oeis-check`` and ``fetch-bfile`` subcommands.

Without cached bytecode a request compiles every module it imports, so
no ``show``, ``export`` or ``jf`` request imports this one.  Each name here
still imports from the module that defined it before (and the public ones
from the package): those modules resolve it on first use.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from .algebra import VARIABLES, Monomial, MultiPoly, R, Scalar, Y
from .arrays import (
    Entry,
    IndexBeyondTruncation,
    Kind,
    LowerTriMatrix,
    _normalize_entry,
)
from .families import FamilySpec, GammaHFTriple, RValue
from .jfraction import PolyLike
from .record import Frozen
from .series import DEFAULT_ORDER, Coeff, TruncatedSeries, _trusted, tidy

# -- truncated series -----------------------------------------------------------


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


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.inverse`."""
    inv0 = _unit_inverse(s._coeffs[0], NonUnitConstantTerm, "constant term")
    a = s._coeffs
    out: list[Coeff] = [1 * inv0]
    for n in range(1, s.order + 1):
        acc = a[1] * out[n - 1]
        for i in range(2, n + 1):
            acc = acc + a[i] * out[n - i]
        out.append(-acc * inv0)
    return _trusted(out)


def series_compose(s: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.compose`.

    Step k computes r_k = c_k + x * r_{k+1} * (inner / x), and r_k is later
    multiplied by inner**k, whose valuation is k, so only its coefficients
    up to x**(n - k) can reach the result.  Each step keeps one more
    coefficient than the last: composing at order n costs n(n+1)(n+2)/6
    coefficient products.
    """
    if inner._coeffs[0] != 0:
        raise NonzeroConstantTerm("inner series must have zero constant term")
    n = min(s.order, inner.order)
    c = s._coeffs
    result = _trusted((c[n],))
    if n:
        over_x = _trusted(inner._coeffs[1 : n + 1])
        for k in range(n - 1, -1, -1):
            result = _trusted((c[k],) + (result * over_x)._coeffs)
    return result


def series_derivative(s: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.derivative`."""
    if s.order == 0:
        return TruncatedSeries((0,))
    return TruncatedSeries([i * c for i, c in enumerate(s._coeffs)][1:])


def series_revert(s: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.revert`: Newton iteration on
    truncated series; exactness is certified by the final composition
    check, which must hold coefficient-for-coefficient."""
    if s._coeffs[0] != 0:
        raise NonzeroConstantTerm("can only revert a series with zero constant term")
    if s.order < 1:
        raise ZeroLinearTerm("no linear coefficient available")
    inv1 = _unit_inverse(s._coeffs[1], ZeroLinearTerm, "linear coefficient")
    n = s.order
    ident = TruncatedSeries.x(n)
    # Pad the derivative back to full order; the fabricated top
    # coefficient only ever multiplies vanishing error terms.
    deriv = TruncatedSeries(s.derivative().coeffs, n)
    g = TruncatedSeries((0, inv1), n)
    for _ in range(n + 2):
        err = s.compose(g) - ident
        if all(c == 0 for c in err.coeffs):
            return g
        g = g - err * deriv.compose(g).inverse()
    raise ArithmeticError("series reversion did not converge")  # pragma: no cover


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.exp`: e = exp(f) solves e' = f' e,
    so e_0 = 1 and n e_n = sum_{k=1..n} k f_k e_{n-k}: O(order^2)
    coefficient products."""
    if s._coeffs[0] != 0:
        raise NonzeroConstantTerm("exp needs a zero constant term")
    scaled = [(k, k * c) for k, c in enumerate(s._coeffs) if k and c]
    out: list[Coeff] = [1]
    for n in range(1, s.order + 1):
        acc = 0
        for k, kc in scaled:
            if k > n:
                break
            acc = acc + kc * out[n - k]
        out.append(acc * Fraction(1, n))
    return _trusted(out)


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


# -- polynomial text ----------------------------------------------------------------


def parse_multipoly(text: str) -> MultiPoly:
    """The body of :meth:`MultiPoly.parse`."""
    try:
        terms: dict[Monomial, Scalar] = {}
        for term in text.replace(" - ", " + -").split(" + "):
            sign, body = (-1, term[1:]) if term.startswith("-") else (1, term)
            coeff, powers = 1, [0, 0]
            for factor in body.split("*"):
                name, _, power = factor.partition("^")
                if name in VARIABLES:
                    powers[VARIABLES.index(name)] = int(power) if power else 1
                else:
                    numerator, slash, denominator = factor.partition("/")
                    coeff = Fraction(int(numerator), int(denominator)) if slash else int(numerator)
            terms[tuple(powers)] = sign * coeff
        poly = MultiPoly(terms)
    except (ValueError, ZeroDivisionError):
        poly = None
    if poly is None or str(poly) != text:
        raise ValueError(f"not a canonical polynomial: {text!r}")
    return poly


# -- lower-triangular matrices ------------------------------------------------------


def tri_mul(a: LowerTriMatrix, b: LowerTriMatrix) -> LowerTriMatrix:
    """The body of :meth:`LowerTriMatrix.__mul__`."""
    if a.size != b.size:
        raise ValueError("matrix product needs equal sizes")
    rows = []
    for n in range(a.size):
        row = []
        for k in range(n + 1):
            acc = a._rows[n][k] * b._rows[k][k]
            for j in range(k + 1, n + 1):
                acc = acc + a._rows[n][j] * b._rows[j][k]
            row.append(tidy(acc))
        rows.append(row)
    return LowerTriMatrix(rows)


def pascal_matrix(size_n: int) -> LowerTriMatrix:
    """The binomial matrix C(n, k) with rows 0..size_n."""
    return LowerTriMatrix([[comb(n, k) for k in range(n + 1)] for n in range(size_n + 1)])


def face_matrix(m: LowerTriMatrix) -> LowerTriMatrix:
    """The face matrix of m: the product m * C(n, k)."""
    return m * pascal_matrix(m.size - 1)


def series_from_triangle(m: LowerTriMatrix) -> TruncatedSeries:
    """The ordinary bivariate series whose x^n coefficient is row n in y."""
    coeffs = []
    for n, row in enumerate(m.rows):
        poly = MultiPoly.const(0)
        for k, e in enumerate(row):
            poly = poly + MultiPoly.coerce(e) * (Y**k)
        coeffs.append(poly)
    return TruncatedSeries(coeffs)


# -- the Riordan group ---------------------------------------------------------------
#
# An ordinary Riordan array is a pair of series (g, f) with g(0) = 1,
# f(0) = 0 and f'(0) a unit; its matrix has entries a[n,k] = [x^n] g * f**k.
# Exponential arrays carry an extra n!/k! prefactor and generalized arrays a
# c_n/c_k prefactor for a weight sequence c.  Ordinary and exponential
# arrays form groups under
#
#     (g, f) . (u, v) = (g * u(f), v(f)),    (g, f)^-1 = (1/g(fbar), fbar),
#
# where fbar is the compositional inverse of f; generalized arrays only
# support entry/matrix extraction here.


class KindMismatch(ValueError):
    """Group operations require both arrays to be of the same kind."""


class UnsupportedKind(ValueError):
    """The operation is not defined for this array kind."""


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


# -- the families' oracle routes -------------------------------------------------------


class NotPalindromic(ValueError):
    """gamma extraction needs palindromic rows."""


def family_array(spec: FamilySpec, order: int = DEFAULT_ORDER) -> RiordanArray:
    """The Riordan array of the family at the given truncation order."""
    r = spec.r
    if spec.flavor is Kind.ORDINARY:
        g = TruncatedSeries.ratio([1], [1, -1], order)
        f = TruncatedSeries.ratio([0, 1, r], [1, -1], order)
        return RiordanArray(g, f, Kind.ORDINARY)
    g = TruncatedSeries.x(order).exp()
    f = TruncatedSeries([0, 1, r * Fraction(1, 2)], order)
    return RiordanArray(g, f, Kind.EXPONENTIAL)


def dense_family_triple(spec: FamilySpec, size_n: int) -> GammaHFTriple:
    """The same triple as :func:`~riordan.families.family_triple` by the
    Riordan route: the array's matrix, its product with the binomial matrix
    and gamma extraction.  Production builds the triple from the row
    recurrences; this route is kept as their oracle."""
    h = family_array(spec, max(size_n, 1)).matrix(size_n)
    return GammaHFTriple(gamma_from_h(h), h, face_matrix(h))


# Closed forms of the ordinary family's three triangles.


def _binom(n: int, k: int) -> int:
    """C(n, k) with the usual vanishing convention outside 0 <= k <= n."""
    return comb(n, k) if 0 <= k <= n else 0


def gamma_closed(n: int, k: int, r: RValue = R) -> RValue:
    """C(n-k, n-2k) r^k; zero when 2k > n, matching the binomial convention."""
    if 2 * k > n:
        return 0
    return comb(n - k, n - 2 * k) * r**k


def h_closed(n: int, k: int, r: RValue = R) -> RValue:
    acc = 0
    for j in range(k + 1):
        acc = acc + _binom(k, j) * _binom(n - j, n - k - j) * r**j
    return acc


def f_closed(n: int, k: int, r: RValue = R) -> RValue:
    """sum_i h[n,i] C(i,k), the coefficients of f_n(y) = h_n(1 + y)."""
    acc = 0
    for i in range(k, n + 1):
        acc = acc + h_closed(n, i, r) * comb(i, k)
    return acc


def gamma_from_h(h: LowerTriMatrix) -> LowerTriMatrix:
    """Solve h_n(y) = sum_k gamma[n,k] y^k (1+y)^(n-2k) row by row.

    The expansion basis is triangular in k, so the coefficients are unique;
    rows beyond k = n//2 are stored as zeros.  Raises NotPalindromic when a
    row fails the palindromy requirement.
    """
    rows = []
    for n, row in enumerate(h.rows):
        if any(row[k] != row[n - k] for k in range(n + 1)):
            raise NotPalindromic(f"row {n} is not palindromic: {row}")
        work = list(row)
        gamma = []
        for k in range(n // 2 + 1):
            c = work[k]
            gamma.append(c)
            for j in range(n - 2 * k + 1):
                work[k + j] = work[k + j] - c * comb(n - 2 * k, j)
        if any(bool(v) for v in work):  # pragma: no cover - palindromy forces this
            raise NotPalindromic(f"row {n} escaped the gamma basis: {row}")
        rows.append(gamma + [0] * (n + 1 - len(gamma)))
    return LowerTriMatrix(rows)


def narayana_array(order: int = DEFAULT_ORDER) -> RiordanArray:
    """The generalized array [sum_m x^m/(m!(m+1)!), x] with weights n!(n+1)!.

    Its matrix is the Narayana triangle N[n,k] = C(n,k) C(n+1,k) / (k+1).
    """
    g = TruncatedSeries(
        [Fraction(1, factorial(m) * factorial(m + 1)) for m in range(order + 1)]
    )
    return RiordanArray(g, TruncatedSeries.x(order), Kind.GENERALIZED, FACTORIAL_PAIR_WEIGHTS)


def narayana_closed(n: int, k: int) -> int:
    return comb(n, k) * comb(n + 1, k) // (k + 1)


def binomial_transform(seq: Sequence, k: PolyLike) -> list:
    """b_n = sum_i C(n, i) k^(n-i) a_i, exactly, same length as the input."""
    powers = [MultiPoly.const(1)]  # powers[j] == k**j
    for _ in range(1, len(seq)):
        powers.append(powers[-1] * k)
    out = []
    for n in range(len(seq)):
        acc = MultiPoly.coerce(seq[n]) if isinstance(seq[n], (int, Fraction)) else seq[n]
        for i in range(n):
            acc = acc + comb(n, i) * powers[n - i] * seq[i]
        out.append(acc)
    return out


# -- the command line's cold subcommands ---------------------------------------------


def parse_matrix_doc(text: str):
    """Inverse of the JSON rendering of :class:`~riordan.cli.OutputDoc`;
    entries come back as int/MultiPoly.

    Polynomial entries are read by :meth:`MultiPoly.parse`, which bounds
    nothing, so every document ``export`` writes reads back exactly.
    """
    import json

    from .cli import OutputDoc

    raw = json.loads(text)

    def decode(entry):
        if isinstance(entry, int):
            return entry
        if isinstance(entry, str):
            stripped = entry.strip()
            try:
                return int(stripped)
            except ValueError:
                return MultiPoly.parse(stripped)
        raise ValueError(f"cannot decode entry {entry!r}")

    fixed = ("kind", "rows", "family", "flavor", "r", "N", "reversed")
    return OutputDoc(
        kind=raw["kind"],
        rows=[[decode(e) for e in row] for row in raw["rows"]],
        family=raw.get("family"),
        flavor=raw.get("flavor"),
        r=raw.get("r"),
        size=raw["N"],
        reversed_form=raw["reversed"],
        extra={key: value for key, value in raw.items() if key not in fixed},
    )


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suite(args.suite, seed=args.seed)
    failures = 0
    for res in results:
        mark = "ok" if res.ok else "FAIL"
        line = f"[{mark:>4}] {res.suite} :: {res.name}"
        if not res.ok and res.detail:
            line += f" -- {res.detail}"
        print(line)
        failures += 0 if res.ok else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def cmd_oeis_check(args) -> int:
    from . import verify
    from .oeis import FIXTURES

    anumbers = args.anumber or sorted(FIXTURES)
    unknown = [a for a in anumbers if a not in FIXTURES]
    if unknown:
        print(f"error: no fixture for {', '.join(unknown)}", file=sys.stderr)
        return 2
    repeated = sorted({a for a in anumbers if anumbers.count(a) > 1})
    if repeated:
        print(f"error: {', '.join(repeated)} given more than once", file=sys.stderr)
        return 2
    results = verify.oeis_suite(anumbers)
    failures = 0
    for res in results:
        print(f"[{'ok' if res.ok else 'FAIL':>4}] {res.detail}")
        failures += 0 if res.ok else 1
    return 0 if failures == 0 else 1


def cmd_fetch_bfile(args) -> int:
    from pathlib import Path

    from .oeis import CACHE_DIR_ENV, CacheMiss, NetworkUnavailable, fetch_bfile

    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or (
        Path.home() / ".cache" / "riordan-oeis"
    )
    try:
        bfile = fetch_bfile(args.anumber, cache_dir, offline=args.offline)
    except (NetworkUnavailable, CacheMiss, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = bfile.values[: args.limit]
    print(f"{args.anumber}: {len(bfile.entries)} terms cached in {cache_dir}")
    print(", ".join(str(v) for v in values))
    return 0

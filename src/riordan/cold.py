"""The code that no ``show``, ``export`` or ``jf`` request runs.

Production builds every triangle by row recurrences or J-fractions
(:mod:`riordan.families`).  The paper's Riordan-group machinery survives
as the oracle that ``verify`` and the tests check them against, and lives
here with the other code only they use: the Riordan group, the families'
oracle routes (Riordan route, gamma extraction, closed forms, Narayana
array), the bodies of the series operations inverse, compose, revert and
exp and of :meth:`MultiPoly.parse`, and ``parse_matrix_doc``.

``verify group`` spends most of its time here, on integer series of order
8 to 12.  So three chains run on one packed int per series, by Kronecker
substitution (Schoenhage 1982; Harvey 2009), when every coefficient is an
int: the Horner steps of :func:`series_compose`, the powers of
:func:`series_revert` and the columns of :meth:`RiordanArray.matrix` at
x = 2^width.  Each proves a bound on its coefficients from its inputs and
takes the width :mod:`riordan.algebra`'s packing rules give that bound;
past ``MAX_WIDTH`` it computes on the coefficients (see "packed integer
chains" below).

Without cached bytecode a request compiles every module it imports, so
no ``show``, ``export`` or ``jf`` request imports this one, and neither
does ``oeis-check`` or ``verify oeis``: no fixture check runs code from
here.  Its names import from here (the public ones also from the
package); of the modules that defined them before, only
:mod:`~riordan.arrays` (``RiordanArray``, ``face_matrix``) and
:mod:`~riordan.families` (``family_array``, ``gamma_from_h``) still
resolve four of them, which the benchmark's tracer wraps there.
"""

from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Callable, Sequence

from . import Frozen
from .algebra import VARIABLES, Monomial, MultiPoly, R, Scalar, Y, _digits, _width, tidy
from .arrays import Entry, IndexBeyondTruncation, LowerTriMatrix, _normalize_entry
from .families import FamilySpec, GammaHFTriple, Kind, RValue
from .jfraction import PolyLike
from .series import DEFAULT_ORDER, Coeff, TruncatedSeries, _trusted

# -- truncated series -----------------------------------------------------------


class NonUnitConstantTerm(ValueError):
    """Series inversion needs an invertible constant term."""


class NonzeroConstantTerm(ValueError):
    """Composition/exp/reversion need a zero constant term."""


class ZeroLinearTerm(ValueError):
    """Reversion needs an invertible linear coefficient."""


class NonIntegralResult(ValueError):
    """A coefficient expected to be an integer is not."""


# -- packed integer chains ----------------------------------------------------
#
# The packing rules (the norm, the slot width and the read back) are
# riordan.algebra's.  A truncation at x^m keeps the value's low m slots
# (_low), exact when each kept coefficient fits its slot, whatever the
# dropped ones are.  Each chain bounds every coefficient it keeps from its
# inputs and takes the width from that bound (algebra._width).  One width
# serves every slot, so past MAX_WIDTH (as for the ordinary family at
# r = 2^B in tests/test_engines.py, whose columns mix coefficients of very
# different sizes) the chain computes on its coefficients, as it does for
# a Fraction or MultiPoly coefficient.


def _ints(*coeffs) -> bool:
    return set(map(type, coeffs)) <= {int}


def _pack_x(coeffs: Sequence[int], width: int) -> int:
    """The polynomial with these coefficients, lowest first, at x = 2^width."""
    return sum(map(int.__lshift__, coeffs, range(0, width * len(coeffs), width)))


def _pack_y(p: MultiPoly, width: int) -> int:
    """An integer polynomial free of r at y = 2^width."""
    return sum(c << width * j for (_, j), c in MultiPoly.coerce(p).items())


def _low(value: int, bits: int) -> int:
    """value's low bits read as a balanced number, in [-2^(bits-1),
    2^(bits-1)): a packed value's low slots, when each fits its slot."""
    value &= (1 << bits) - 1
    return value - (value >> bits - 1 << bits)


def _read(value: int, width: int, n: int) -> list[int]:
    """The n coefficients packed in value, lowest first."""
    return (_digits(value, width) + [0] * n)[:n]


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
    coefficient products, or n products of packed ints for integer series.
    """
    if inner._coeffs[0] != 0:
        raise NonzeroConstantTerm("inner series must have zero constant term")
    n = min(s.order, inner.order)
    c, over_x = s._coeffs[: n + 1], inner._coeffs[1 : n + 1]
    # Step k's coefficients are those of sum_{j >= k} c_j inner^(j - k), at
    # most |s|(F) <= |s|(1) F^n for F = max(1, |inner|(1)).
    width = _ints(*c, *over_x) and _width(sum(map(abs, c)) * max(1, sum(map(abs, over_x))) ** n)
    if width:
        result, over_x = c[n], _pack_x(over_x, width)
        for k in range(n - 1, -1, -1):
            result = c[k] + (_low(result * over_x, width * (n - k)) << width)
        return _trusted(_read(result, width, n + 1))
    result = _trusted((c[n],))
    if n:
        over_x = _trusted(over_x)
        for k in range(n - 1, -1, -1):
            result = _trusted((c[k],) + (result * over_x)._coeffs)
    return result


def series_revert(s: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.revert`, by Lagrange inversion
    (Stanley, *EC2*, Thm 5.4.2): with h = x / s(x), the coefficient of x^k
    in the reversion is [x^(k-1)] h^k / k.  One series inverse and n - 1
    truncated products at order n - 1, on packed ints for integer h, each
    power read at its one slot k - 1."""
    if s._coeffs[0] != 0:
        raise NonzeroConstantTerm("can only revert a series with zero constant term")
    if s.order < 1:
        raise ZeroLinearTerm("no linear coefficient available")
    # A non-unit linear coefficient is a ZeroLinearTerm, not the
    # NonUnitConstantTerm that inverting s/x would raise.
    _unit_inverse(s._coeffs[1], ZeroLinearTerm, "linear coefficient")
    h = series_inverse(_trusted(s._coeffs[1:]))
    out, power, n = [0, tidy(h._coeffs[0])], h, s.order
    # The coefficients of h^k are at most |h|(1)^k, and |h|(1) >= |h_0| = 1.
    width = _ints(*h._coeffs) and _width(sum(map(abs, h._coeffs)) ** n)
    if width:
        power = h = _pack_x(h._coeffs, width)
    for k in range(2, n + 1):
        if width:
            # Coefficient k - 1 is the low slot of power rounded down by
            # k - 1 slots, which adds the borrow of the balanced slots below.
            power = _low(power * h, width * n)
            c = _low(power + (1 << width * (k - 1) - 1) >> width * (k - 1), width)
        else:
            power = power * h
            c = power._coeffs[k - 1]
        out.append(tidy(c * Fraction(1, k)))
    return _trusted(out)


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.exp`: e = exp(f) solves e' = f' e,
    so n e_n = sum_{k=1..n} k f_k e_{n-k}.  It runs in Hurwitz form: with
    E_n = n! e_n and F_k = k! f_k, E_0 = 1 and
    E_n = sum_{k=1..n} C(n-1, k-1) F_k E_{n-k}, which stays integral for
    integral F.  O(order^2) coefficient products, and one product by
    1/n! for each coefficient."""
    if s._coeffs[0] != 0:
        raise NonzeroConstantTerm("exp needs a zero constant term")
    scaled = [(k, factorial(k) * c) for k, c in enumerate(s._coeffs) if k and c]
    hurwitz: list[Coeff] = [1]
    out: list[Coeff] = [1]
    for n in range(1, s.order + 1):
        acc = 0
        for k, fk in scaled:  # fk = F_k
            if k > n:
                break
            acc = acc + comb(n - 1, k - 1) * fk * hurwitz[n - k]
        hurwitz.append(acc)
        out.append(tidy(acc * Fraction(1, factorial(n))))
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
        """Lower triangle of entries for n, k = 0..size_n.

        Column k is g * f**k, which is zero below x**k, so only its
        coefficients k..size_n are built: column k is column k - 1 times
        f/x, one coefficient shorter, one product of packed ints for
        integer g and f.  An exponential row n takes its prefactors n!/k!
        from one table; an ordinary row takes none."""
        if size_n > self.order:
            raise IndexBeyondTruncation(
                f"size {size_n} beyond truncation order {self.order}"
            )
        over_x = self.f._coeffs[1 : size_n + 1]  # f/x, order size_n - 1
        cols = [self.g._coeffs[: size_n + 1]]  # cols[k][m] = [x^(k+m)] g f^k
        # Column k's coefficients are at most |g|(1) |f/x|(1)^k, and |f/x|(1) >= 1.
        width = _ints(*cols[0], *over_x) and _width(sum(map(abs, cols[0])) * sum(map(abs, over_x)) ** size_n)
        if width:
            col, over_x = _pack_x(cols[0], width), _pack_x(over_x, width)
            for k in range(1, size_n + 1):
                col = _low(col * over_x, width * (size_n + 1 - k))
                cols.append(_read(col, width, size_n + 1 - k))
        else:
            over_x = _trusted(over_x)
            for _ in range(size_n):
                cols.append((_trusted(cols[-1][:-1]) * over_x)._coeffs)
        rows = []
        for n in range(size_n + 1):
            row = [cols[k][n - k] for k in range(n + 1)]
            if self.kind is Kind.EXPONENTIAL:
                scale = [1] * (n + 1)  # scale[k] = n!/k!
                for k in range(n, 0, -1):
                    scale[k - 1] = scale[k] * k
                row = map(mul, scale, row)
            elif self.kind is Kind.GENERALIZED:
                row = [self._prefactor(n, k) * e for k, e in enumerate(row)]
            rows.append([_normalize_entry(e) for e in row])
        return LowerTriMatrix(rows)

    # -- group structure ---------------------------------------------------

    def _require_group_kind(self):
        if self.kind is Kind.GENERALIZED:
            raise UnsupportedKind("generalized arrays do not support group operations")

    def __mul__(self, other: "RiordanArray") -> "RiordanArray":
        if not isinstance(other, RiordanArray):
            return NotImplemented
        self._require_group_kind()
        other._require_group_kind()
        if self.kind is not other.kind:
            raise KindMismatch(f"cannot mix {self.kind.value} and {other.kind.value}")
        return RiordanArray(
            self.g * other.g.compose(self.f), other.f.compose(self.f), self.kind
        )

    def inverse(self) -> "RiordanArray":
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


# Closed forms of the ordinary family's three triangles, a row at a time.


def _powers(r: RValue, n: int) -> list[RValue]:
    """r**0 .. r**n, each one product from the last."""
    powers = [r**0]
    for _ in range(n):
        powers.append(powers[-1] * r)
    return powers


def gamma_closed_row(n: int, r: RValue = R) -> list[RValue]:
    """Row n of gamma: C(n-k, n-2k) r^k, and zero when 2k > n."""
    powers = _powers(r, n // 2)
    return [comb(n - k, n - 2 * k) * powers[k] if 2 * k <= n else 0 for k in range(n + 1)]


def h_closed_row(n: int, r: RValue = R) -> list[RValue]:
    """Row n of h: sum_j C(k,j) C(n-j, n-k-j) r^j, over j <= min(k, n-k),
    where the second binomial is nonzero."""
    powers = _powers(r, n // 2)
    return [
        sum(comb(k, j) * comb(n - j, n - k - j) * powers[j] for j in range(min(k, n - k) + 1))
        for k in range(n + 1)
    ]


def f_closed_row(n: int, r: RValue = R) -> list[RValue]:
    """Row n of f: sum_i h[n,i] C(i,k), the coefficients of f_n(y) =
    h_n(1 + y), from one h row."""
    h = h_closed_row(n, r)
    return [sum(h[i] * comb(i, k) for i in range(k, n + 1)) for k in range(n + 1)]


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
    """b_n = sum_i C(n, i) k^(n-i) a_i, exactly, same length as the input,
    each a MultiPoly (:func:`_difference_table`)."""
    return _difference_table([MultiPoly.coerce(a) for a in seq], MultiPoly.coerce(k))


def _difference_table(row: list, k) -> list:
    """The binomial transform of row by k, on any ring: row 0 is the input,
    row m+1 has entries row_m[i+1] + k row_m[i], and b_m = row_m[0], so the
    only products are by k.  ``verify group``'s binomial-shift law runs it
    on ints packed at y = 2^W."""
    out = []
    while row:
        out.append(row[0])
        row = [b + a * k for a, b in zip(row, row[1:])]
    return out


# -- the command line's export reader ------------------------------------------------


def parse_matrix_doc(text: str):
    """Inverse of the JSON rendering of :class:`~riordan.render.OutputDoc`;
    entries come back as int/MultiPoly.

    Polynomial entries are read by :meth:`MultiPoly.parse`, which bounds
    nothing, so every document ``export`` writes reads back exactly.
    """
    import json

    from .render import OutputDoc

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
    r = raw.get("r")
    return OutputDoc(
        kind=raw["kind"],
        rows=[[decode(e) for e in row] for row in raw["rows"]],
        family=raw.get("family"),
        flavor=raw.get("flavor"),
        r=r if r in (None, "r") else decode(r),  # |r| >= 2^53 is a string
        size=raw["N"],
        reversed_form=raw["reversed"],
        extra={key: value for key, value in raw.items() if key not in fixed},
    )

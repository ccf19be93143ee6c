"""The code that no ``show``, ``export`` or ``jf`` request runs.

Production builds every triangle by row recurrences or J-fractions
(:mod:`riordan.families`).  The paper's Riordan-group machinery survives
as the oracle that ``verify`` and the tests check them against, and lives
here with the other code only they use: the Riordan group, the families'
oracle routes (Riordan route, gamma extraction, closed forms, Narayana
array), the bodies of the series operations ratio, inverse, compose,
revert and exp and of :meth:`MultiPoly.parse`, and ``parse_matrix_doc``.
One recurrence, :func:`_bgf_rows`, is the module's only generating-function
engine: it reads a Riordan array's rows from its bivariate GF, g / (1 -
y f) or g exp(y f), at y = Y for :meth:`RiordanArray.bgf` and at an
integer y for the matrix, its entries, the group laws and revert (below);
at y = 1 it is the series ratio num / den, c num / (1 - u) for c = 1/den_0
and u = 1 - c den (the inverse is num = 1), and the series exp, exp(y s).

``verify group`` spends most of its time here, on integer series of order
8 to 12.  So integers stand in for series and polynomials, by Kronecker
substitution (Schoenhage 1982; Harvey 2009): the Horner steps of
:func:`series_compose` run on one int per series at x = 2^width wherever
every coefficient is an int, and :func:`_array_rows` reads row n of every
array, symbolic and weighted ones included, from the value its bivariate
GF takes at y = 2^width: an int, or a MultiPoly each of whose terms packs
the row's coefficients of that monomial.  :meth:`RiordanArray.entry`
and :meth:`RiordanArray.matrix` read every entry from there, one way
(:meth:`RiordanArray._reader`), and so does :func:`series_revert`, which
solves against the rows of the array (1, s), whose inverse in the
Riordan group is (1, sbar).  Each width, and each width of the verify
checks, is ``_width`` of one rule, the method of majorants: the same
computation run on the norms of its inputs (see "packed integer chains"
below).  The rows, revert and compose clear rational coefficients to ints
first, and compute at the r they are given: a polynomial in r stays a
MultiPoly; the entries, compose, revert and exp divide back through one
exact division, :func:`_over`.  ``verify props`` takes the Riordan route at one integer
r = 2^W (:mod:`riordan.props`), and the group suite's matrix laws compare
rows packed at y = 2^W (:meth:`RiordanArray._rows_at`).

Without cached bytecode a request compiles every module it imports, so
no ``show``, ``export`` or ``jf`` request imports this one, and neither
does ``oeis-check`` or ``verify oeis``: no fixture check runs code from
here.  It imports :mod:`~riordan.arrays` (the triangle type and its entry
checks) only inside the functions that build or check matrix entries, so
``verify group``, whose laws compare packed rows, compiles no
``riordan.arrays``.  Its names import from here (the public ones also
from the package); of the modules that defined them before, only
:mod:`~riordan.arrays` (``RiordanArray``, ``face_matrix``) and
:mod:`~riordan.families` (``family_array``, ``gamma_from_h``) still
resolve four of them, which the benchmark's tracer wraps there.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from operator import mul
from typing import Callable, Sequence

from . import Frozen
from .algebra import VARIABLES, Monomial, MultiPoly, R, Scalar, Y, _digits, _norm, _width, tidy
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
# riordan.algebra's.  Every width here and in the verify checks comes from
# one rule, the method of majorants: run the computation that the packed
# values guard once more on scalar ints, each input coefficient replaced by
# its norm (the sum of the absolute values of its coefficients), at y = 1
# and, for a series, at x = 1.  Sums and products of norms bound the norms
# of sums and products, so the run bounds every coefficient the computation
# makes, and the width is ``_width`` of the largest value of the run.  A
# Riordan array's run is its majorant (_majorant): the rows of its
# bivariate GF with g and f replaced by their norms; a walk's is its norm
# walk (walk._norm_walk).  A truncation at x^m keeps the value's low m slots
# (_low), exact when each kept coefficient fits its slot, whatever the
# dropped ones are.  Compose runs on one packed int per series only where
# the width is at most SERIES_CHAIN_BITS, and elsewhere computes on its
# coefficients; _array_rows packs at any width.  The rows and compose clear
# the common denominators of rational coefficients first (_cleared), and
# read each result back once: an entry is divided by its column's
# denominator, revert solves over 1/(d s_1) and takes coefficient k times
# d^k, and compose divides by its one denominator, each through _over.


def _ints(*coeffs) -> bool:
    return set(map(type, coeffs)) <= {int}


# The cutoff, measured as the packed Horner chain of compose against series
# products of the same ints (warm, best of 7 runs of 100, on a 2-core x86-64
# machine; random int coefficients sized to give each slot width, N = 8 to
# 16): the chain took 0.3-0.9x up to 256 bits and 0.9-1.7x from 272 bits up.
SERIES_CHAIN_BITS = 256


def _chain_width(bound: int) -> int | None:
    """The slot width of compose's packed chain whose coefficients are at
    most bound, or None, for series products, where that width passes
    SERIES_CHAIN_BITS."""
    width = _width(bound)
    return width if width and width <= SERIES_CHAIN_BITS else None


def _bgf_rows(kind: Kind, g: Sequence, f: Sequence, size_n: int, y: "int | MultiPoly") -> list:
    """Rows 0..size_n at y of the array (g, f) of the kind, ordinary or
    exponential, row n sum_k a[n,k] y^k, the x^n coefficient of its
    bivariate GF, computed exactly on scalars or MultiPolys, with no
    division.  Ordinary: P = g / (1 - y f), so P_n = g_n + y sum_(j=1..n)
    f_j P_(n-j).  Exponential, on g and f in Hurwitz form (:func:`_hurwitz`,
    G_j = j! g_j and F_j = j! f_j): P_n = n! [x^n] g e for e = exp(y f),
    which solves e' = y f' e, so E_n = n! e_n is y sum_(j=1..n) C(n-1, j-1)
    F_j E_(n-j), and P_n is sum_j C(n, j) G_j E_(n-j): integral for
    integral G and F, as for integer g and f and the exponential family's
    e^x and x + r x^2/2.  g(0) need not be 1, nor f_1 a unit.  The one GF
    engine of this module; its callers: :meth:`RiordanArray.bgf` at y = Y
    (:meth:`RiordanArray._rows_at`, which the group laws also run at
    y = 2^W); :func:`_array_rows` at y = 2^V on cleared coefficients, for
    :meth:`RiordanArray.matrix`, :meth:`RiordanArray.entry` and
    :func:`series_revert`; :func:`_majorant` on norms; and at y = 1
    :func:`series_ratio` (ordinary, the ratio and the inverse) and
    :func:`series_exp` (exponential, g = 1)."""
    g, f, rows = g[: size_n + 1], f[1 : size_n + 1], []  # f from f_1 on
    if kind is Kind.ORDINARY:
        for n in range(size_n + 1):
            rows.append(g[n] + y * sum(map(mul, f, reversed(rows))))
        return rows
    exp, binom = [1], _pascal(size_n)  # exp[n] = E_n
    for n in range(size_n + 1):
        if n:
            exp.append(y * sum(map(mul, map(mul, binom[n - 1], f), reversed(exp))))
        rows.append(sum(map(mul, map(mul, binom[n], g), reversed(exp))))
    return rows


@cache
def _pascal(size_n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..size_n of Pascal's triangle."""
    return tuple(tuple(comb(n, j) for j in range(n + 1)) for n in range(size_n + 1))


def _hurwitz(coeffs: Sequence) -> list:
    """The Hurwitz form of a series, j! c_j for each coefficient c_j."""
    return [tidy(factorial(j) * c) for j, c in enumerate(coeffs)]


def _from_hurwitz(coeffs: Sequence) -> list:
    """The series whose Hurwitz form is coeffs, c_j / j! for each, through
    :func:`_over`: the inverse of :func:`_hurwitz`."""
    return [_over(c, factorial(j)) for j, c in enumerate(coeffs)]


def _majorant(kind: Kind, g: Sequence, f: Sequence, size_n: int, y: int = 1) -> int:
    """The majorant of the array (g, f), given as :func:`_bgf_rows` takes
    it: the largest of rows 0..size_n at y of the array with each
    coefficient of g and f replaced by its norm.  Every entry a[n,k], and
    the norm of its coefficients in r and y, is at most that entry of the
    norm array, so at most its row at y = 1.  At y = 2 the run bounds as
    well the norm of
    each face row, whose entries sum_i a[n,i] C(i,k) sum over k to at most
    sum_i |a[n,i]| 2^i, and of each gamma row of a palindromic row a[n,.]:
    y^(-n/2) sum_k a[n,k] y^k is sum_k gamma[n,k] s^(n-2k) in s = y^(1/2)
    + y^(-1/2), and also sum_(j<n/2) a[n,j] L_(n-2j)(s), plus a[n,n/2] for
    even n, where the Lucas polynomial L_m(s) = y^(m/2) + y^(-m/2) has
    coefficients summing in absolute value to the Lucas number L_m <= 2^m,
    and palindromy keeps that below sum_k |a[n,k]| 2^k."""
    norms = ([_norm(c) if isinstance(c, MultiPoly) else abs(c) for c in s] for s in (g, f))
    return max(_bgf_rows(kind, *norms, size_n, y))


def _array_rows(kind: Kind, g: Sequence, f: Sequence, size_n: int) -> list[list]:
    """Rows 0..size_n of the array (g, f), given as :func:`_bgf_rows` takes
    it on ints or integer-coefficient MultiPolys, each read from its
    bivariate GF at y = 2^V, V ``_width`` of its majorant (:func:`_majorant`)
    with no cap: an int row as its balanced digits, a MultiPoly row (in r or
    y) term by term (:func:`_read`)."""
    width = _width(_majorant(kind, g, f, size_n), cap=None)
    return [_read(v, width, n + 1) for n, v in enumerate(_bgf_rows(kind, g, f, size_n, 1 << width))]


def _pack_x(coeffs: Sequence[int], width: int) -> int:
    """The polynomial with these coefficients, lowest first, at x = 2^width."""
    return sum(map(int.__lshift__, coeffs, range(0, width * len(coeffs), width)))


def _pack_var(p: "int | MultiPoly", width: int, var: str = "y") -> int:
    """An integer polynomial in var alone ("r" or "y") at var = 2^width: the
    group laws pack y, the props identities r."""
    if type(p) is int:
        return p
    slot = VARIABLES.index(var)
    return sum(c << width * m[slot] for m, c in p.items())


def _low(value: int, bits: int) -> int:
    """value's low bits read as a balanced number, in [-2^(bits-1),
    2^(bits-1)): a packed value's low slots, when each fits its slot."""
    value &= (1 << bits) - 1
    return value - (value >> bits - 1 << bits)


def _read(value: "int | MultiPoly", width: int, n: int) -> list:
    """The n coefficients packed in value, lowest first; in a MultiPoly,
    coefficient k is the MultiPoly of digit k of each of its terms."""
    if type(value) is int:
        return (_digits(value, width) + [0] * n)[:n]
    digits = {m: _digits(c, width) + [0] * n for m, c in value._terms.items()}
    return [MultiPoly({m: d[k] for m, d in digits.items()}) for k in range(n)]


def _cleared(coeffs: Sequence) -> tuple[int, list]:
    """d and the coefficients times d, each an int or an integer-coefficient
    MultiPoly, where d is the least common denominator of their rational
    numbers (a coefficient of another type counts as a denominator 1)."""
    d = lcm(*(getattr(c, "denominator", 1) for v in coeffs for c in (v._terms.values() if isinstance(v, MultiPoly) else (v,))))
    return d, [tidy(v * d if d != 1 else v) for v in coeffs]


def _over(value, den: int):
    """value / den, exact and canonical (:func:`~riordan.algebra.tidy`): an
    int that den divides divided as an int.  The one exact division of
    the matrix, compose, revert and exp."""
    if type(value) is int:
        return value // den if not value % den else tidy(Fraction(value, den))
    return tidy(value * Fraction(1, den))


def _unit_inverse(c: Coeff, error: type[ValueError], what: str) -> Coeff:
    """Exact multiplicative inverse of a coefficient, or raise ``error``."""
    if isinstance(c, MultiPoly):
        if not c.is_constant() or not c:
            raise error(f"{what} must be an invertible constant, got {c}")
        c = c.constant_value()
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"unsupported coefficient type: {c!r}")
    if not c:
        raise error(f"{what} is zero")
    if isinstance(c, int) and c not in (1, -1):
        raise error(f"{what} must be a unit in the integers, got {c}")
    return c if isinstance(c, int) else 1 / c


def series_ratio(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.ratio` and of
    :meth:`TruncatedSeries.inverse` (num = 1), on num and den of one order
    n: with c the inverse of den_0, num / den = c num / (1 - u) for u = 1 -
    c den, whose constant term is 0, so its coefficients are rows 0..n at
    y = 1 of the ordinary array (c num, u) (:func:`_bgf_rows`), each made
    canonical (:func:`~riordan.algebra.tidy`) as exp and revert return
    theirs."""
    c = _unit_inverse(den._coeffs[0], NonUnitConstantTerm, "constant term")
    return _trusted([*map(tidy, _bgf_rows(Kind.ORDINARY, [c * a for a in num._coeffs], [-c * a for a in den._coeffs], den.order, 1))])


def series_compose(s: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.compose`.

    Step k computes r_k = c_k + x * r_{k+1} * (inner / x), and r_k is later
    multiplied by inner**k, whose valuation is k, so only its coefficients
    up to x**(n - k) can reach the result.  Each step keeps one more
    coefficient than the last: composing at order n costs n(n+1)(n+2)/6
    coefficient products, or n products of packed ints for integer series.
    Rational coefficients are cleared as :meth:`RiordanArray.matrix`
    clears them: with d_s and d_i the common denominators of s and inner/x,
    R_k = d_s d_i^(n-k) r_k steps by R_k = d_s c_k d_i^(n-k) + x R_(k+1)
    (d_i inner/x), on ints or on integer-coefficient MultiPolys, and the
    result is R_0 over d_s d_i^n.
    """
    if inner._coeffs[0] != 0:
        raise NonzeroConstantTerm("inner series must have zero constant term")
    n = min(s.order, inner.order)
    c, over_x = s._coeffs[: n + 1], inner._coeffs[1 : n + 1]
    den, ints = 1, _ints(*c, *over_x)
    if not ints:
        (ds, c), (di, over_x) = _cleared(c), _cleared(over_x)
        if di != 1:
            c = [ck * di ** (n - k) for k, ck in enumerate(c)]
        den = ds * di**n
        ints = _ints(*c, *over_x)
    # The Horner steps run on norms at x = 1 bound every coefficient that
    # step k keeps, and every one of its product; with |inner/x|(1) taken
    # at least 1, no step exceeds the last, |s| at that norm.
    bound, norm = 0, ints and max(1, sum(map(abs, over_x)))
    for ck in reversed(c) if ints else ():
        bound = abs(ck) + bound * norm
    width = ints and _chain_width(bound)
    if width:
        result, over_x = c[n], _pack_x(over_x, width)
        for k in range(n - 1, -1, -1):
            result = c[k] + (_low(result * over_x, width * (n - k)) << width)
        out = _read(result, width, n + 1)
    else:
        result = _trusted((c[n],))
        if n:
            over_x = _trusted(over_x)
            for k in range(n - 1, -1, -1):
                result = _trusted((c[k],) + (result * over_x)._coeffs)
        out = result._coeffs
    return _trusted(out if den == 1 else [_over(v, den) for v in out])


def series_revert(s: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.revert`.  The inverse of the array
    (1, s) in the Riordan group is (1, sbar), so the reversion sbar solves
    sum_k sbar_k [x^m] s^k = [m = 1], a triangular system in the rows of
    (1, s).  With d the common denominator of s (:func:`_cleared`), row m of
    the ordinary array (1, d s) (:func:`_array_rows`) holds d^k [x^m] s^k,
    and its diagonal (d s_1)^m, so u_k = sbar_k / d^k solves u_1 = e and
    u_m = -e^m sum_(1<=k<m) row_m[k] u_k, for e = 1/(d s_1)."""
    if s._coeffs[0] != 0:
        raise NonzeroConstantTerm("can only revert a series with zero constant term")
    if s.order < 1:
        raise ZeroLinearTerm("no linear coefficient available")
    c = _unit_inverse(s._coeffs[1], ZeroLinearTerm, "linear coefficient")
    n, (d, cleared) = s.order, _cleared(s._coeffs)
    rows = _array_rows(Kind.ORDINARY, [1] + [0] * n, cleared, n)
    u = [0, e := _over(c, d)]
    for m in range(2, n + 1):
        u.append(-(e**m) * sum(map(mul, rows[m][1:m], u[1:])))
    return _trusted([0] + [tidy(uk * d**k) for k, uk in enumerate(u[1:], 1)])


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """The body of :meth:`TruncatedSeries.exp`: n! [x^n] exp(s) is row n
    at y = 1 of the exponential array (1, s) (:func:`_bgf_rows`), which
    runs in Hurwitz form and stays integral for integral j! s_j; each row
    is then scaled once, by 1/n!."""
    if s._coeffs[0] != 0:
        raise NonzeroConstantTerm("exp needs a zero constant term")
    return _trusted(_from_hurwitz(_bgf_rows(Kind.EXPONENTIAL, [1], _hurwitz(s._coeffs), s.order, 1)))


def egf_to_ogf(series: TruncatedSeries) -> TruncatedSeries:
    """Rescale coefficient n by n!, turning an EGF into its ordinary form."""
    return _trusted(_hurwitz(series._coeffs))


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


def pascal_matrix(size_n: int) -> "LowerTriMatrix":
    """The binomial matrix C(n, k) with rows 0..size_n."""
    from .arrays import LowerTriMatrix

    return LowerTriMatrix(_pascal(size_n))


def face_matrix(m: "LowerTriMatrix") -> "LowerTriMatrix":
    """The face matrix of m: the product m * C(n, k)."""
    return m * pascal_matrix(m.size - 1)


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

    def entry(self, n: int, k: int) -> "Entry":
        """Exact entry a[n, k]; zero above the diagonal.  It is read from
        rows 0..n as :meth:`matrix` reads its entries (:meth:`_reader`), and
        raises NonIntegralEntry only where this entry is not integral."""
        from .arrays import IndexBeyondTruncation

        if n < 0 or k < 0:
            raise IndexError(f"no entry ({n}, {k}): indices are non-negative")
        if n > self.order:
            raise IndexBeyondTruncation(f"n = {n} beyond truncation order {self.order}")
        return self._reader(n)(n, k) if k <= n else 0

    def matrix(self, size_n: int) -> "LowerTriMatrix":
        """Lower triangle of entries for n, k = 0..size_n, each read by
        :meth:`_reader`; the first that is not integral, in row order,
        raises NonIntegralEntry."""
        from .arrays import IndexBeyondTruncation, LowerTriMatrix

        if size_n < 0:
            raise ValueError(f"size {size_n} is negative")
        if size_n > self.order:
            raise IndexBeyondTruncation(f"size {size_n} beyond truncation order {self.order}")
        read = self._reader(size_n)
        return LowerTriMatrix([read(n, k) for k in range(n + 1)] for n in range(size_n + 1))

    def _reader(self, size_n: int) -> Callable[[int, int], "Entry"]:
        """The entries (n, k), k <= n <= size_n, as :meth:`entry` and
        :meth:`matrix` read them.  g and f, in Hurwitz form for an
        exponential array (:meth:`_gf`), are scaled by the common
        denominators d_g and d_f of their coefficients, so that every
        coefficient is an int or an integer-coefficient MultiPoly, and the
        cleared array's entries are d_g d_f^k a[n,k].  Rows 0..size_n are
        read at once from the bivariate GF at y = 2^V (:func:`_array_rows`),
        a generalized array's as those of its ordinary array.  An entry is
        then read alone: times c_n/c_k for a generalized array, divided by
        column k's d_g d_f^k (:func:`_over`) and checked integral
        (NonIntegralEntry)."""
        from .arrays import _normalize_entry

        weights = self.weights if self.kind is Kind.GENERALIZED else None
        (dg, g), (df, f) = map(_cleared, self._gf(size_n))
        rows = _array_rows(Kind.ORDINARY if weights is not None else self.kind, g, f, size_n)

        def read(n: int, k: int) -> "Entry":
            e = rows[n][k] if weights is None else Fraction(Fraction(weights(n)), Fraction(weights(k))) * rows[n][k]
            return _normalize_entry(_over(e, dg * df**k))

        return read

    def _gf(self, size_n: int) -> tuple[list, list]:
        """g and f to x^size_n as :func:`_bgf_rows` takes them: in Hurwitz
        form for an exponential array, where e^x and the family's x + r x^2/2
        have integer coefficients."""
        g, f = self.g._coeffs[: size_n + 1], self.f._coeffs[: size_n + 1]
        return (_hurwitz(g), _hurwitz(f)) if self.kind is Kind.EXPONENTIAL else (g, f)

    def _rows_at(self, size_n: int, y: "int | MultiPoly") -> list:
        """Rows 0..size_n of the matrix at y, an integer or :data:`Y`, row n
        the x^n coefficient of the bivariate GF (:func:`_bgf_rows`), in
        Hurwitz form for an exponential array (:meth:`bgf`)."""
        self._require_group_kind()
        return _bgf_rows(self.kind, *self._gf(size_n), size_n, y)

    def _bound(self, size_n: int, y: int = 1) -> int:
        """The array's majorant to row size_n at y (:func:`_majorant`)."""
        return _majorant(self.kind, *self._gf(size_n), size_n, y)

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
        """Bivariate generating function as a series in x over MultiPoly,
        read from rows 0..order of the array's recurrence at y = Y
        (:meth:`_rows_at`).  Ordinary: g / (1 - y f), whose x^n coefficient
        is row n.  Exponential: g * exp(y f), whose x^n coefficient is the
        Hurwitz row n over n! (:func:`_from_hurwitz`), so that n! times it
        is the row polynomial sum_k a[n,k] y^k.  Coefficient 0 is g_0 as
        given, and each later one a MultiPoly, a constant one included.
        """
        order = self.order if order is None else order
        if order < 0:
            raise ValueError(f"order {order} is negative")
        if order > self.order:
            from .arrays import IndexBeyondTruncation

            raise IndexBeyondTruncation(f"order {order} beyond truncation {self.order}")
        if self.kind is Kind.GENERALIZED:
            raise UnsupportedKind("generalized arrays have no bivariate GF here")
        rows = self._rows_at(order, Y)
        if self.kind is Kind.EXPONENTIAL:
            rows = _from_hurwitz(rows)
        return _trusted([self.g[0], *map(MultiPoly.coerce, rows[1:])])


def identity_array(kind: Kind = Kind.ORDINARY, order: int = DEFAULT_ORDER) -> RiordanArray:
    return RiordanArray(TruncatedSeries.one(order), TruncatedSeries.x(order), kind)


def binomial_array(kind: Kind = Kind.ORDINARY, order: int = DEFAULT_ORDER) -> RiordanArray:
    """Pascal's triangle, (1/(1-x), x/(1-x)) or, exponentially, [e^x, x]:
    the family at r = 0 (:func:`family_array`)."""
    if kind is Kind.GENERALIZED:
        raise UnsupportedKind("the binomial array is ordinary or exponential")
    return family_array(FamilySpec(kind, 0), order)


def face_array(a: RiordanArray) -> RiordanArray:
    """Riordan-level face matrix: the product with the binomial array."""
    return a * binomial_array(a.kind, a.order)


# -- the families' oracle routes -------------------------------------------------------


class NotPalindromic(ValueError):
    """gamma extraction needs palindromic rows."""


def family_array(spec: FamilySpec, order: int = DEFAULT_ORDER) -> RiordanArray:
    """The Riordan array of the family at the given truncation order, its
    coefficients canonical: r/2 through ``tidy``, so that at r = 0 it is
    :func:`binomial_array`."""
    r = spec.r
    if spec.flavor is Kind.ORDINARY:
        g = TruncatedSeries.ratio([1], [1, -1], order)
        f = TruncatedSeries.ratio([0, 1, r], [1, -1], order)
        return RiordanArray(g, f, Kind.ORDINARY)
    g = TruncatedSeries.x(order).exp()
    f = TruncatedSeries([0, 1, tidy(r * Fraction(1, 2))], order)
    return RiordanArray(g, f, Kind.EXPONENTIAL)


def dense_family_triple(spec: FamilySpec, size_n: int) -> GammaHFTriple:
    """The same triple as :func:`~riordan.families.family_triple` by the
    Riordan route: the array's matrix, its product with the binomial matrix
    and gamma extraction.  Production builds the triple from the row
    recurrences; this route is kept as their oracle.  It computes at the r
    of spec: on MultiPolys at a symbolic r, on ints at an integer one, as
    ``verify props`` takes it at r = 2^W (:mod:`riordan.props`)."""
    h = family_array(spec, max(size_n, 1)).matrix(size_n)
    return GammaHFTriple(gamma_from_h(h), h, face_matrix(h))


# Closed forms of the ordinary family's three triangles, a row at a time.


def gamma_closed_row(n: int, r: RValue = R) -> list[RValue]:
    """Row n of gamma: C(n-k, n-2k) r^k, and zero when 2k > n."""
    return [comb(n - k, n - 2 * k) * r**k if 2 * k <= n else 0 for k in range(n + 1)]


def h_closed_row(n: int, r: RValue = R) -> list[RValue]:
    """Row n of h: sum_j C(k,j) C(n-j, n-k-j) r^j, over j <= min(k, n-k),
    where the second binomial is nonzero."""
    powers = [r**j for j in range(n // 2 + 1)]
    return [
        sum(comb(k, j) * comb(n - j, n - k - j) * powers[j] for j in range(min(k, n - k) + 1))
        for k in range(n + 1)
    ]


def f_closed_row(n: int, r: RValue = R) -> list[RValue]:
    """Row n of f: sum_i h[n,i] C(i,k), the coefficients of f_n(y) =
    h_n(1 + y), from one h row (:func:`_face_row`)."""
    return _face_row(h_closed_row(n, r))


def _face_row(h: list[RValue]) -> list[RValue]:
    """sum_i h[i] C(i,k) for each k: the face row of an h row."""
    n = len(h) - 1
    return [sum(h[i] * comb(i, k) for i in range(k, n + 1)) for k in range(n + 1)]


def gamma_from_h(h: "LowerTriMatrix") -> "LowerTriMatrix":
    """Solve h_n(y) = sum_k gamma[n,k] y^k (1+y)^(n-2k) row by row.

    The expansion basis is triangular in k, so the coefficients are unique;
    rows beyond k = n//2 are stored as zeros.  Raises NotPalindromic when a
    row fails the palindromy requirement, the only way a row can fail: step
    k subtracts the palindromic y^k (1+y)^(n-2k) times the remainder's
    coefficient of y^k, which zeroes it and touches no lower power, so the
    remainder stays palindromic with its coefficients of y^0..y^(n//2) zero,
    and is therefore zero.
    """
    from .arrays import LowerTriMatrix

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
        rows.append(gamma + [0] * (n + 1 - len(gamma)))
    return LowerTriMatrix(rows)


def narayana_array(order: int = DEFAULT_ORDER) -> RiordanArray:
    """The generalized array [sum_m x^m/(m!(m+1)!), x] with weights n!(n+1)!.

    Its matrix is the Narayana triangle N[n,k] = C(n,k) C(n+1,k) / (k+1).
    """
    g = TruncatedSeries([_over(1, factorial(m) * factorial(m + 1)) for m in range(order + 1)])
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

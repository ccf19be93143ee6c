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

import re
from fractions import Fraction
from math import lcm
from operator import add
from typing import NamedTuple, Sequence, Union

from . import _lazy_names
from .algebra import MultiPoly, Y
from .record import Frozen
from .series import TruncatedSeries

PolyLike = Union[int, Fraction, MultiPoly]


class ParseError(ValueError):
    """Malformed polynomial expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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


# -- expression parsing -----------------------------------------------------

# Bounds on what the parser builds, each a ParseError at the operator or
# literal before any arithmetic.  The result of every product (explicit or
# implicit) and power, bounded from its operands by ``_growth``, has total
# degree in i, r, y at most MAX_EXPONENT and coefficients whose numerators
# and denominators are at most 2^MAX_COEFF_BITS.  An exponent literal is at
# most MAX_EXPONENT; an integer literal has at most MAX_LITERAL_DIGITS
# digits (10^308 < 2^1024).  So each operation has bounded cost, and parsing
# time grows at most linearly with the length of the text.
MAX_EXPONENT = 32
MAX_COEFF_BITS = 1024
MAX_LITERAL_DIGITS = 308

_TOKEN = re.compile(r"(\d+)|([iry])|([()+\-*^/])|(\S)")


def _growth(p: IndexPoly) -> tuple[int, int, int]:
    """Bounds that products add and a power scales: p's total degree in
    i, r, y, then ceil(log2) of the sum of |numerators| of its coefficients
    over their common denominator, and of that denominator."""
    terms = [(k + a + b, c) for k, coeff in enumerate(p.coeffs) for (a, b), c in coeff.items()]
    den = lcm(*(c.denominator for _, c in terms))
    norm = sum(abs(c.numerator) * (den // c.denominator) for _, c in terms)
    return max((d for d, _ in terms), default=0), (norm - 1).bit_length(), (den - 1).bit_length()


def _check_growth(growth: tuple[int, int, int], where: int):
    degree, numerator_bits, denominator_bits = growth
    if degree > MAX_EXPONENT:
        raise ParseError(f"degree {degree} exceeds the maximum {MAX_EXPONENT}", where)
    if max(numerator_bits, denominator_bits) > MAX_COEFF_BITS:
        raise ParseError(f"coefficients may exceed {MAX_COEFF_BITS} bits", where)


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses in i, r, y."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            if m.group(4):
                raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
            if m.group(1) and len(m.group(1)) > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal exceeds {MAX_LITERAL_DIGITS} digits", m.start())
            kind = "int" if m.group(1) else ("var" if m.group(2) else "op")
            self.tokens.append((kind, m.group(0), m.start()))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> IndexPoly:
        value = self.expr()
        kind, text, where = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", where)
        return value

    def expr(self) -> IndexPoly:
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text in "+-":
            self.take()
            negate = text == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                value = value - rhs if text == "-" else value + rhs
            else:
                return value

    def term(self) -> IndexPoly:
        value = self.power()
        while True:
            kind, text, where = self.peek()
            if kind == "op" and text == "*":
                self.take()
            elif not (kind in ("int", "var") or (kind == "op" and text == "(")):
                return value
            # an explicit product, or an implicit one such as "2y" or "i(i+1)"
            rhs = self.power()
            _check_growth(tuple(map(add, _growth(value), _growth(rhs))), where)
            value = value * rhs

    def power(self) -> IndexPoly:
        base = self.atom()
        kind, text, where = self.peek()
        if kind == "op" and text == "^":
            self.take()
            kind, text, literal_at = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", literal_at)
            exponent = int(text)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {text} exceeds the maximum {MAX_EXPONENT}", literal_at)
            _check_growth(tuple(exponent * v for v in _growth(base)), where)
            return base**exponent
        return base

    def atom(self) -> IndexPoly:
        kind, text, where = self.take()
        if kind == "int":
            value = Fraction(int(text))
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "/":
                self.take()
                dkind, dtext, dwhere = self.take()
                if dkind != "int" or int(dtext) == 0:
                    raise ParseError("denominator must be a nonzero integer", dwhere)
                value /= int(dtext)
            return IndexPoly.constant(value)
        if kind == "var":
            if text == "i":
                return IndexPoly.index()
            return IndexPoly.constant(MultiPoly.var(text))
        if kind == "op" and text == "-":
            return -self.atom()
        if kind == "op" and text == "(":
            value = self.expr()
            kind, text, where = self.take()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", where)
            return value
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", where)


def parse_index_poly(text: str) -> IndexPoly:
    """Parse a polynomial expression in i, r, y (e.g. ``i*r*y*(y+1)``)."""
    return _Parser(text).parse()


def parse_poly(text: str) -> MultiPoly:
    """Parse a polynomial in r, y only; the level index i is rejected."""
    value = parse_index_poly(text)
    if value.degree() > 0:
        raise ParseError("the index variable i is not allowed here", text.find("i"))
    return value.coeffs[0] if value.coeffs else MultiPoly.const(0)


# The binomial transform of a sequence checks the binomial shift in
# ``verify`` and the tests; no request runs it.
__getattr__ = _lazy_names(globals(), ("cold", "binomial_transform"))

"""The expression parser of ``jf``'s ``--alpha`` and ``--beta``.

:func:`parse_index_poly` reads a polynomial in the level index i and in r
and y, written with +, -, *, ^, / between integer literals, and
parentheses, into an :class:`~riordan.jfraction.IndexPoly`;
:func:`parse_poly` reads one in r and y only.  A malformed or unbounded
expression raises :class:`ParseError`, which names its position.  Only
``jf`` requests load this module.
"""

import re
from math import lcm
from operator import add

from .algebra import MultiPoly
from .jfraction import IndexPoly


class ParseError(ValueError):
    """Malformed polynomial expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Bounds on what the parser builds, each a ParseError at the operator or
# literal before any arithmetic.  The result of every product (explicit or
# implicit) and power, bounded from its operands by ``_growth``, has total
# degree in i, r, y at most MAX_EXPONENT and coefficients whose numerators
# and denominators are at most 2^MAX_COEFF_BITS.  An exponent literal is at
# most MAX_EXPONENT; an integer literal has at most MAX_LITERAL_DIGITS
# digits (10^308 < 2^1024).  So each operation has bounded cost, and parsing
# time grows at most linearly with the length of the text.  Parentheses and
# unary minus signs nest at most MAX_DEPTH deep, each a ParseError at the
# token that opens one level too many: the parser recurses once per level,
# and the interpreter's recursion limit must not end a parse first.
MAX_EXPONENT = 32
MAX_COEFF_BITS = 1024
MAX_LITERAL_DIGITS = 308
MAX_DEPTH = 100

# Compiled (and cached by re) on the first parse: no other request pays for it.
_TOKEN = r"(\d+)|([iry])|([()+\-*^/])|(\S)"


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
        for m in re.finditer(_TOKEN, text):
            if m.group(4):
                raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
            if m.group(1) and len(m.group(1)) > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal exceeds {MAX_LITERAL_DIGITS} digits", m.start())
            kind = "int" if m.group(1) else ("var" if m.group(2) else "op")
            self.tokens.append((kind, m.group(0), m.start()))
        self.pos = 0
        self.depth = 0

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
        if kind == "op" and text in "+-":
            self.take()
        value = self.term()
        if kind == "op" and text == "-":
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
            value = int(text)
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "/":
                self.take()
                dkind, dtext, dwhere = self.take()
                if dkind != "int" or int(dtext) == 0:
                    raise ParseError("denominator must be a nonzero integer", dwhere)
                from fractions import Fraction

                value = Fraction(value, int(dtext))
            return IndexPoly.constant(value)
        if kind == "var":
            return IndexPoly.index() if text == "i" else IndexPoly.constant(MultiPoly.var(text))
        if kind == "op" and text in "-(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError(f"nesting exceeds the maximum depth {MAX_DEPTH}", where)
            if text == "-":
                value = -self.atom()
            else:
                value = self.expr()
                kind, text, where = self.take()
                if not (kind == "op" and text == ")"):
                    raise ParseError("expected ')'", where)
            self.depth -= 1
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

"""Exact coefficient arithmetic: integers, rationals, and polynomials in r, y.

Three coefficient domains are used throughout the package:

* plain ``int`` (Python integers are already arbitrary precision),
* ``fractions.Fraction`` for rational intermediate values (always reduced,
  denominator positive -- the stdlib guarantees both),
* :class:`MultiPoly`, a sparse polynomial in the two parameters ``r`` and
  ``y`` with exact rational coefficients, each stored as an ``int`` when it
  is integral and as a ``Fraction`` only when it is not.

``r`` is the parameter of the two triangle families and ``y`` marks the
column index in bivariate generating functions, so the variable universe is
fixed to exactly ``{r, y}``.  A :class:`MultiPoly` maps exponent pairs
``(i, j)`` (standing for ``r**i * y**j``) to nonzero coefficients; the zero
polynomial is the empty map.  Instances are immutable and canonical, hence
``==`` is coefficient-wise equality (``hash(3) == hash(Fraction(3))``, so
hashing agrees with it) and the text rendering is deterministic:
terms are ordered by total degree, then y-degree, then r-degree, all
descending (graded order with r below y).

Values of the three domains mix freely in arithmetic; ``int`` and
``Fraction`` coerce into :class:`MultiPoly` on contact, and :func:`tidy`
gives a value its canonical form, a constant polynomial as its scalar and
an integral ``Fraction`` as its ``int``.  :mod:`fractions`
is imported only where a ``Fraction`` is made: a request with integer
data never loads it, and every type test reaches it, through
:func:`_is_scalar`, only after ``int`` and ``MultiPoly``.

The packed engines -- the row recurrence of the shaped J-fractions, the
family triangles' among them (``recurrence._row_recurrence``), the Motzkin
walk of an integral fraction free of r (:mod:`riordan.walk`) and three
integer chains of the Riordan oracle (:mod:`riordan.cold`) -- compute on
Kronecker-packed integers (Schoenhage 1982; Harvey 2009): a polynomial in
one variable with integer coefficients is the int it takes where that
variable is 2^width.  Substituting 2^width is a ring homomorphism, so a
product of packed ints is the packed product.  The recurrence packs r,
a polynomial being the list of its y-coefficients; the walk packs y; the
chains pack x.  The rules they share are written here once:

* the norm |p|(1), the sum of the absolute values of p's coefficients,
  that every engine's coefficient bound starts from (``_norm``);
* the slot width for a bound: its bits and a sign bit, in whole bytes, at
  most ``MAX_WIDTH`` = 2048 bits (``_width``);
* a weight's terms c x^i as pairs (c, width*i) (``_pack``), so that its
  product with a packed value is a small product and a shift per term
  (``_fma``), however far apart its powers are;
* the read back: p from its balanced base-2^width digits (``_digits``),
  exact when every |coefficient| < 2^(width-1): a walk's rows are its
  packed values' digits, and the recurrence's entries are read into a
  MultiPoly in r (``_unpack``) or, for ``show`` and ``jf``,
  straight into its text (``riordan.render._write``), joined by the one
  rule that ``MultiPoly.__str__`` joins its terms by (``_text``).
"""

import sys
from operator import add
from typing import Iterator, Mapping, Union

from . import _cold

VARIABLES = ("r", "y")

# The widest slot a packed engine uses, in bits (``_width``).  One width
# serves every coefficient, so past it the slots of the small ones are
# mostly zeros and the engines compute on MultiPoly, Fraction or plain ints
# instead.
MAX_WIDTH = 2048

Scalar = Union[int, "Fraction"]
Monomial = tuple[int, int]  # (power of r, power of y)


class MultiPoly:
    """Immutable sparse polynomial in r and y over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in monomial {(i, j)}")
            if type(c) is not int:
                from fractions import Fraction

                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c:
                clean[(int(i), int(j))] = c
        self._terms = clean

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        return cls({(0, 0): value})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        if name == "r":
            return cls({(1, 0): 1})
        if name == "y":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}; universe is {VARIABLES}")

    @classmethod
    def coerce(cls, value: "Scalar | MultiPoly") -> "MultiPoly":
        return value if isinstance(value, MultiPoly) else cls.const(value)

    @classmethod
    def parse(cls, text: str) -> "MultiPoly":
        """The inverse of ``str``: read canonical text such as ``-3/2*r^2*y + 1``.

        Unlike the ``jf`` expression parser it bounds nothing, so every
        polynomial the package prints reads back exactly.  Text that ``str``
        would not have produced raises ``ValueError``.
        """
        return _cold().parse_multipoly(text)

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self._terms.items())

    def coefficient(self, rpow: int = 0, ypow: int = 0) -> Scalar:
        return self._terms.get((rpow, ypow), 0)

    def y_coefficients(self) -> "list[MultiPoly]":
        """The coefficients of y**0 .. y**degree("y"), as polynomials in r."""
        split: list[dict[Monomial, Scalar]] = [{} for _ in range(self.degree("y") + 1)]
        for (i, j), c in self._terms.items():
            split[j][(i, 0)] = c
        return [_trusted(terms) for terms in split]

    def degree(self, name: str) -> int:
        """Largest exponent of the named variable (0 for the zero polynomial)."""
        pos = VARIABLES.index(name)
        return max((m[pos] for m in self._terms), default=0)

    def is_constant(self) -> bool:
        return all(m == (0, 0) for m in self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get((0, 0), 0)

    def has_integer_coefficients(self) -> bool:
        return all(type(c) is int for c in self._terms.values())

    def substitute(
        self, values: "Mapping[str, Scalar | MultiPoly] | None" = None, **named: "Scalar | MultiPoly"
    ) -> "MultiPoly":
        """Substitute exact values, or polynomials in r and y, for r and/or y;
        unassigned variables remain.  ``p.substitute(y=Y + 1)`` is p(r, 1 + y)."""
        assign = dict(values or {})
        assign.update(named)
        unknown = set(assign) - set(VARIABLES)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        r, y = (MultiPoly.coerce(assign.get(name, MultiPoly.var(name))) for name in VARIABLES)
        return sum((c * r**i * y**j for (i, j), c in self._terms.items()), MultiPoly())

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Scalar | MultiPoly") -> "MultiPoly":
        """One pass over other's terms: self's are canonical already, so
        only the sums are made canonical, and the zeros they make dropped."""
        if isinstance(other, MultiPoly):
            terms = other._terms
        elif type(other) is int:
            terms = {(0, 0): other}
        elif _is_scalar(other):
            terms = MultiPoly.const(other)._terms
        else:
            return NotImplemented
        out = dict(self._terms)
        for m, c in terms.items():
            c += out.get(m, 0)
            if c:
                out[m] = c if type(c) is int or c.denominator != 1 else c.numerator
            else:
                out.pop(m, None)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Scalar | MultiPoly") -> "MultiPoly":
        return self + -other

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: "Scalar | MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if type(other) is not int and not _is_scalar(other):
                return NotImplemented
            return _trusted({m: c * other for m, c in self._terms.items()})
        out: dict[Monomial, Scalar] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, 0) + c1 * c2
        return _trusted(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result, base = MultiPoly.const(1), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if _is_scalar(other):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        terms = []
        # Graded order with r below y, highest first.
        ordered = sorted(self._terms.items(), key=lambda item: (item[0][0] + item[0][1], item[0][1], item[0][0]), reverse=True)
        for (i, j), c in ordered:
            m = ("*r" if i == 1 else f"*r^{i}" if i else "") + ("*y" if j == 1 else f"*y^{j}" if j else "")
            terms.append(f" - {-c}{m}" if c < 0 else f" + {c}{m}")
        return _text(terms)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _text(terms: list[str]) -> str:
    """A polynomial's text from its terms, highest first, each " + c*m" or
    " - |c|*m" for a monomial m ("c" alone for the constant): a coefficient
    1 is not written, and the first term's sign is "" or "-".  Both writers
    of the text end here: ``MultiPoly.__str__`` and, for a packed entry,
    ``riordan.render._write``."""
    text = "".join(terms).replace(" 1*", " ")
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _trusted(terms: dict[Monomial, Scalar]) -> MultiPoly:
    """A MultiPoly from terms that ring operations computed from valid ones.

    Their exponents are valid and their coefficients are ``int`` or
    ``Fraction``, so unlike ``__init__`` this only drops zeros and stores
    integral Fractions as ``int``.
    """
    return _wrap(
        {m: c if type(c) is int or c.denominator != 1 else c.numerator for m, c in terms.items() if c}
    )


def _wrap(terms: dict[Monomial, Scalar]) -> MultiPoly:
    """A MultiPoly holding terms, which must be canonical already."""
    poly = object.__new__(MultiPoly)
    poly._terms = terms
    return poly


def _is_scalar(value) -> bool:
    """An int or a Fraction.  No Fraction exists before :mod:`fractions` is
    imported, so this test does not import it."""
    return isinstance(value, int) or isinstance(value, getattr(sys.modules.get("fractions"), "Fraction", ()))


def tidy(value: Scalar | MultiPoly) -> Scalar | MultiPoly:
    """The canonical form of a coefficient: a constant polynomial as its
    scalar, an integral Fraction as its int."""
    if isinstance(value, MultiPoly):
        if not value.is_constant():
            return value
        value = value.constant_value()
    return value if type(value) is int or getattr(value, "denominator", 0) != 1 else value.numerator


def _norm(p: MultiPoly) -> int:
    """|p|(1): the sum of the absolute values of p's coefficients."""
    return sum(map(abs, p._terms.values()))


def _width(bound: int) -> int | None:
    """The slot width for coefficients of absolute value at most bound: its
    bits and a sign bit, in whole bytes (which ``_digits`` reads by bytes
    where there are many slots of many bits), or None past MAX_WIDTH."""
    width = (bound.bit_length() + 8) // 8 * 8
    return width if width <= MAX_WIDTH else None


def _pack(poly: MultiPoly, width: int) -> list[list[tuple[int, int]]]:
    """The y-coefficients of an integer-coefficient poly, each as the pairs
    (c, width*i) of its terms c r^i: at r = 2^width, the sum of c << width*i."""
    packed: list[list[tuple[int, int]]] = [[] for _ in range(poly.degree("y") + 1)]
    for (i, j), c in poly._terms.items():
        packed[j].append((c, width * i))
    return packed


def _unpack(value: int, width: int) -> int | MultiPoly:
    """The polynomial in r packed in value, as a triangle stores it: a
    constant as an int."""
    if -(1 << (width - 1)) <= value < 1 << (width - 1):
        return value
    return _wrap({(i, 0): c for i, c in enumerate(_digits(value, width)) if c})  # nonzero ints need no _trusted


def _digits(value: int, width: int) -> list[int]:
    """The balanced base-2^width digits of value, lowest first, each in
    [-2^(width-1), 2^(width-1)); the top ones may be 0."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    # A top digit at slot t makes |value| > 2^(width*t - 2).
    slots = (abs(value).bit_length() + 1) // width + 1
    if slots * slots * width > 1 << 21:
        # Many slots of many bits: add half to every slot, so that each
        # balanced digit d is the unsigned slot d + half, and read the slots
        # from the sum's bytes (the width is a whole number of bytes), in
        # time linear in value's size.  The digit loop below shifts all of
        # value per digit, so its time grows as slots times value's bits,
        # about slots^2 * width, but it costs less per slot, and less still
        # where no digit is negative (no carry), as in a positive triangle's
        # rows.  Measured on a 2-core x86-64 machine at 16-2048 bits, the
        # reads broke even at slots^2 * width of 2^18-2^19 on signed digits
        # and of 2^20-2^22 on non-negative ones; at 2^21 the bytes took
        # 0.4-0.7x the loop's time on signed digits and 0.8-1.35x on
        # non-negative ones.  On the rows of exponential show --which f
        # --N 100 (up to 51 slots of 344 bits, none negative) the bytes
        # took 1.1-3.4x the loop's time.
        size = width // 8
        data = (value + int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")).to_bytes(slots * size, "little")
        return [int.from_bytes(data[i : i + size], "little") - half for i in range(0, slots * size, size)]
    digits = []
    for _ in range(slots):
        # The lowest balanced digit: the low bits, less 2^width from half up.
        c = value & mask
        value >>= width
        if c >= half:
            c -= mask + 1
            value += 1
        digits.append(c)
    return digits


def _fma(out: list[int], p: list[list[tuple[int, int]]], q: list[int], k: int = 1) -> list[int]:
    """out += k * p * q for p as _pack gives it, q packed and k an int,
    extending out as needed."""
    out.extend([0] * (len(p) + len(q) - 1 - len(out)))
    for i, terms in enumerate(p):
        end = i + len(q)
        for c, shift in terms:
            out[i:end] = map(add, out[i:end], map(shift.__rlshift__, map((k * c).__mul__, q)))
    return out


R = MultiPoly.var("r")
Y = MultiPoly.var("y")

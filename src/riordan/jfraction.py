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
step at height k and ``b_{k+1}`` per fall from height k+1 to k (the
walk, O(N^2) height-steps: :meth:`JFraction.expand` on MultiPoly, and
the rows of an integral fraction free of r on packed integers).  Three
shapes need only O(N) rows, a three-term recurrence (on packed integers if
its rows are dense and its slots narrow, else on MultiPoly): a fraction
that stops at level 1 (alpha(1) = beta(2) = 0), the Hermite fraction
(alpha free of i, beta = i*b) and a fraction whose alpha and beta are both
free of i, such as the associahedron's.  :meth:`JFraction.plan` decides,
in one place and before any row is computed, how an expansion runs: its
engine from the fraction's shape, its layout and slot width from the
engine's module, and the common denominator it clears first (a
:class:`Plan`).  :meth:`JFraction.rows` runs the plan, for ``jf``,
``show`` and the family triangles (:meth:`JFraction.triangle`) alike;
``show`` and ``jf`` have the packed rows written as text.  Each engine is a
module of its own, which only the expansions that take it import: the
recurrence :mod:`riordan.recurrence`, the walk :mod:`riordan.walk` (with
:mod:`riordan.series` only where a series is asked for: by
:meth:`JFraction.expand`, the oracle of every engine, and so by the rows
of a MultiPoly walk).  This module holds the fractions, their maps and
the plan.
"""

from functools import reduce
from itertools import zip_longest
from math import lcm
from collections import namedtuple
from typing import Sequence, Union

from . import Frozen, _lazy_names
from .algebra import MultiPoly, Y, _trusted, _unpack, tidy

PolyLike = Union[int, "Fraction", MultiPoly]


class IndexPoly(Frozen):
    """Polynomial in the level index i with MultiPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[MultiPoly, ...]):
        self._init(coeffs=coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[PolyLike]) -> "IndexPoly":
        clean = [MultiPoly.coerce(c) for c in coeffs]
        while clean and not clean[-1]:
            clean.pop()
        return cls(tuple(clean))

    @classmethod
    def constant(cls, value: PolyLike) -> "IndexPoly":
        return cls.from_coeffs([value])

    @classmethod
    def index(cls) -> "IndexPoly":
        """The polynomial i itself."""
        return cls.from_coeffs([0, 1])

    def __call__(self, i: int) -> MultiPoly:
        """The coefficient at level i: each coefficient's terms times i^p,
        added into one dict."""
        terms: dict = {}
        for p, c in enumerate(self.coeffs):
            for m, v in c.items():
                terms[m] = terms.get(m, 0) + v * i**p
        return _trusted(terms)

    def degree(self) -> int:
        return max(len(self.coeffs) - 1, 0)

    def __add__(self, other: "IndexPoly | PolyLike") -> "IndexPoly":
        other = other if isinstance(other, IndexPoly) else IndexPoly.constant(other)
        return IndexPoly.from_coeffs([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self) -> "IndexPoly":
        return IndexPoly.from_coeffs([-c for c in self.coeffs])

    def __sub__(self, other: "IndexPoly | PolyLike") -> "IndexPoly":
        return self + (-other if isinstance(other, IndexPoly) else -MultiPoly.coerce(other))

    def __mul__(self, other: "IndexPoly | PolyLike") -> "IndexPoly":
        other = other if isinstance(other, IndexPoly) else IndexPoly.constant(other)
        out = [MultiPoly.const(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return IndexPoly.from_coeffs(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IndexPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return reduce(IndexPoly.__mul__, [self] * exponent, IndexPoly.constant(1))

    def __str__(self) -> str:
        pieces = []
        for power, c in reversed(list(enumerate(self.coeffs))):
            text, mono = str(c), "i" if power == 1 else f"i^{power}"
            if c and power:
                text = mono if text == "1" else f"({text})*{mono}" if " " in text or text[0] == "-" else f"{text}*{mono}"
            if c:
                pieces.append(text)
        return " + ".join(pieces) or "0"


class Plan(namedtuple("Plan", "engine width bound den", defaults=(1,))):
    """How :meth:`JFraction.rows` expands a fraction to an order, every
    number of it decided before any row is computed (:meth:`JFraction.plan`).

    ``engine`` is a row of recurrence.SHAPES, or "walk"; ``width`` the slot
    width in bits, r^i or y^j at slot i or j, None on MultiPoly; ``bound``
    bounds every |coefficient| of every row the engine computes, before
    ``den`` divides them; ``den`` (default 1) is the common denominator D,
    cleared before the engine runs."""

    __slots__ = ()

    @property
    def layout(self) -> str:
        """What the engine computes on, which its width alone decides:
        "MultiPoly" where it is None, else packed ints, "y-packed" for the
        walk and "r-packed" for the rows."""
        return "MultiPoly" if self.width is None else "y-packed" if self.engine == "walk" else "r-packed"


class JFraction(namedtuple("JFraction", "alpha beta")):
    """Level coefficients alpha_i (i >= 0) and weights beta_i (i >= 1), each
    an :class:`IndexPoly`."""

    __slots__ = ()

    def expand(self, order: int) -> "TruncatedSeries":
        """Truncated expansion as a series in x over MultiPoly, by the
        Motzkin walk on MultiPoly (:func:`riordan.walk.expand`, which holds
        its body): t[k] weighs the paths so far that end at height k, a step
        maps it to t'[k] = t[k-1] + alpha(k) t[k] + beta(k+1) t[k+1], from
        t = [1], and coefficient n is t[0] after n steps.  It takes no plan
        and runs no packed code, so it is the oracle of every engine; it is
        also where :meth:`rows` of a MultiPoly walk takes its rows from.
        """
        from .walk import expand

        return expand(self, order)

    def plan(self, order: int) -> Plan:
        """How :meth:`rows` expands the fraction to x^order: its engine, its
        slot width (and so its layout), the bound that proves the width and
        the common denominator D.

        A fraction with a non-integer coefficient is cleared of the common
        denominator D of its coefficients first: row n is row n of the
        integral fraction (D alpha; D^2 beta), whose GF is the fraction's at
        Dx, divided by D^n.  So every engine runs on integer coefficients,
        and the plan is the cleared fraction's, with its D.

        Three shapes of fraction expand by a three-term row recurrence
        (:func:`~riordan.recurrence._row_recurrence`) with a = alpha(0) and
        b = beta(1), each named by its row of ``recurrence.SHAPES``:
        alpha(1) = beta(2) = 0 stops the fraction at level 1, so its GF is
        1/(1 - ax - bx^2) ("level one"); alpha free of i and beta = i*b is
        the Hermite fraction, the OGF of the EGF exp(ax + bx^2/2)
        ("hermite"); alpha and beta both free of i give the GF
        S = 1/(1 - ax - bx^2 S) ("level-independent").  Every other
        fraction takes the walk (:mod:`riordan.walk`).  Each engine's module
        gives its slot width, which decides the layout, and its bound:
        :func:`riordan.recurrence._layout` and :func:`riordan.walk._layout`.
        Every plan has a bound, an int.  A negative order raises ValueError.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        alpha, beta = self
        den = lcm(*(c.denominator for p in (*alpha.coeffs, *beta.coeffs) for _, c in p.items()))
        if den != 1:
            return JFraction(alpha * den, beta * den**2).plan(order)._replace(den=den)
        level_one, hermite = not alpha(1) and not beta(2), beta.degree() == 1 and not beta(0)
        if level_one or not alpha.degree() and (hermite or not beta.degree()):
            from .recurrence import _layout

            shape = "level one" if level_one else "hermite" if hermite else "level-independent"
            return Plan(shape, *_layout(alpha(0), beta(1), shape, order))
        from .walk import _layout

        return Plan("walk", *_layout(self, order))

    def rows(self, order: int, read=_unpack, plan: "Plan | None" = None) -> list[list]:
        """Rows 0..order of the expansion, row n the y-coefficients of [x^n]
        up to its last nonzero one: each an int, a Fraction or a MultiPoly in r.
        They run as ``plan`` says, by default as :meth:`plan` says: the
        walk's as :func:`riordan.walk.rows` gives them, the others by
        :func:`riordan.recurrence._row_recurrence`.  Where the rows run on
        r-packed integers,
        ``read(v, width)`` reads each distinct entry v of a packed integer
        row: by default :func:`~riordan.algebra._unpack`, the MultiPoly;
        ``show`` and ``jf`` pass a writer of its text
        (:func:`riordan.render._write`).  ``read`` is used for nothing else:
        every other entry comes back as an int, a Fraction or a MultiPoly,
        and so does every entry of a fraction with a denominator D.  A
        negative order raises ValueError, as :meth:`plan` does.
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        plan = plan or self.plan(order)
        if plan.den != 1:
            from fractions import Fraction

            rows = JFraction(self.alpha * plan.den, self.beta * plan.den**2).rows(order, plan=plan._replace(den=1))
            return [[tidy(c * Fraction(1, plan.den**n)) for c in row] for n, row in enumerate(rows)]
        if plan.engine == "walk":
            from . import walk

            return walk.rows(self, order, plan)
        from .recurrence import _row_recurrence

        return _row_recurrence(self.alpha(0), self.beta(1), plan.engine, plan.width, order, read)

    def triangle(self, order: int) -> "LowerTriMatrix":
        """:meth:`rows` as a triangle (:func:`_triangle_rows`).  Integer
        weights give integer rows, so only a fraction with a non-integer
        coefficient has every entry checked
        (:class:`~riordan.arrays.NonIntegralEntry`)."""
        from .arrays import LowerTriMatrix, _normalize_entry

        plan = self.plan(order)
        rows = _triangle_rows(self.rows(order, plan=plan))
        return LowerTriMatrix(rows if plan.den == 1 else (map(_normalize_entry, row) for row in rows))

    def binomial_shift(self, k: PolyLike) -> "JFraction":
        """The k-th binomial transform: every alpha shifted by k."""
        return JFraction(self.alpha + MultiPoly.coerce(k), self.beta)

    def transfer(self) -> "JFraction":
        """Scale level i's alpha by (i+1) and weight beta_i by i(i+1).

        On the displayed sequences this is (a0, a1, a2, ...; b1, b2, b3, ...)
        -> (a0, 2 a1, 3 a2, ...; 2 b1, 6 b2, 12 b3, ...), the map carrying
        the associahedron fraction triple onto the permutahedron one.
        """
        return JFraction(
            IndexPoly.from_coeffs([1, 1]) * self.alpha,
            IndexPoly.from_coeffs([0, 1, 1]) * self.beta,
        )

    def gamma_to_h(self) -> "JFraction":
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

    def h_to_f(self) -> "JFraction":
        """y -> 1+y in every coefficient: the fraction with rows f_n(y) = h_n(1+y)."""
        return JFraction(*(IndexPoly.from_coeffs([c.substitute(y=Y + 1) for c in p.coeffs]) for p in self))

    def reversed(self) -> "JFraction":
        """alpha -> y alpha(1/y), beta -> y^2 beta(1/y): the fraction with
        rows y^n p_n(1/y), read backwards.  Needs deg_y alpha <= 1 and
        deg_y beta <= 2 (ValueError otherwise)."""
        return JFraction(_reflect(self.alpha, 1, "alpha"), _reflect(self.beta, 2, "beta"))


def _triangle_rows(rows: list[list]) -> list[list]:
    """Rows 0, 1, ... of a triangle, in place, from the y-coefficients of its
    row polynomials, each up to its last nonzero one: row n padded with
    zeros to n + 1 entries.  Rows are checked in order, and the first of
    y-degree above n raises ValueError.  ``show``, the fixture checks and
    every triangle built from a fraction or a series shape their rows here."""
    for n, row in enumerate(rows):
        if len(row) > n + 1:
            raise ValueError(f"coefficient of x^{n} has y-degree {len(row) - 1} > n")
        row += [0] * (n + 1 - len(row))
    return rows


def _reflect(p: IndexPoly, degree: int, name: str) -> IndexPoly:
    """y^degree p(1/y), coefficient by coefficient."""
    if any(c.degree("y") > degree for c in p.coeffs):
        raise ValueError(f"row reversal needs {name} of y-degree at most {degree}, not {p}")
    return IndexPoly.from_coeffs([MultiPoly({(i, degree - j): v for (i, j), v in c.items()}) for c in p.coeffs])


# The parser is riordan.expr, which only jf requests load; perfbench/tracer.py's
# Tracer.install() wraps its two entry points by looking them up here
# (lines 186-187).
__getattr__ = _lazy_names(globals(), ("expr", "parse_index_poly parse_poly"))

"""The three-term row recurrence of the shaped J-fractions.

:meth:`~riordan.jfraction.JFraction.rows` expands three shapes of fraction
by one recurrence, p0(n) P_n = p1(n) a P_{n-1} + p2(n) B P_{n-2}, in O(N)
rows: a fraction that stops at level 1, a Hermite fraction and a fraction
whose levels are free of i.  ``SHAPES`` holds each shape's row of the
recurrence.  They are the family triangles of ``show``, the simplex, the
hypercube and the associahedron, and every ``jf`` of those shapes.  Only
those expansions import this module; the Motzkin walk, which expands every
other fraction, is :mod:`riordan.walk`.  :meth:`JFraction.plan` picks the
shape, and the slot width, and so the layout, with :func:`_layout`, whose
rule for rows too sparse to pack (:func:`_fill`, the terms the last row can
hold) is this engine's own; :func:`_row_recurrence` runs the rows in them.
"""

from functools import reduce

from .algebra import MultiPoly, _fma, _norm, _pack, _width, _wrap, tidy

# Each shape's (p0(n), p1(n), p2(n)), and its weight B from a = alpha(0) and
# b = beta(1).  A fraction free of i has the GF S = 1/(1 - ax - bx^2 S),
# which is algebraic, so its coefficients obey an order-2 recurrence (at
# a = b = 1 the Motzkin numbers': Stanley, EC2 6.4).
SHAPES = {
    "level one": (lambda n: (1, 1, 1), lambda a, b: b),
    "hermite": (lambda n: (1, 1, n - 1), lambda a, b: b),
    "level-independent": (lambda n: (n + 2, 2 * n + 1, 1 - n), lambda a, b: a * a - 4 * b),
}


def _layout(a: MultiPoly, b: MultiPoly, shape: str, order: int) -> tuple:
    """The slot width and bound of rows 0..order of the shape, as
    :class:`~riordan.jfraction.Plan` holds them: (width, bound) packed, or
    (None, bound) on MultiPoly, for a and b of integer coefficients.

    Packed rows are integers, r -> 2^width (see :mod:`riordan.algebra`,
    which holds the packing rules).  Packing is a ring homomorphism, so a
    row's undivided packed int is p0(n) times its packed P_n and ``// p0(n)``
    is exact, however narrow the slots.  Run first on |a|(1) and |b|(1), the
    weights of a fraction whose paths (:mod:`riordan.walk`) weigh at least
    the norm of each path of this one, and on the B the table computes from
    those (the norm of B itself can bound too low: for a = 1 + y and b = y
    it is 4, against 2^2 - 4 = 0), the recurrence bounds every coefficient
    of every row, and the slot width is ``_width`` of that bound.  The rows
    run on MultiPoly instead past ``MAX_WIDTH``, where coefficients of very
    different sizes share a width, or where the terms the last row can hold
    (:func:`_fill`) fill fewer than half of their slots: packing gives every
    slot r^0..r^i of an entry the full width.  Measured at N = 36-100,
    packing was 1.6-5x faster on dense rows of slots up to 1500 bits,
    0.7-1x as fast at 1800-2300 bits, and up to 12x slower from 2600 bits
    or on sparse rows.
    """
    multipliers, weight = SHAPES[shape]
    bound = max(row[0] for row in _rows(multipliers, [[(_norm(a), 0)]], [[(weight(_norm(a), _norm(b)), 0)]], order))
    fill = _fill([[m for m, _ in w.items()] for w in (a, b)], order)
    dense = 2 * sum(map(int.bit_count, fill)) >= sum(map(int.bit_length, fill))
    return (_width(bound) if dense else None), bound


def _fill(steps, order: int) -> list[int]:
    """Where row ``order`` can have terms: for each power y^j in turn, the
    bitset of the powers r^i that its coefficient of y^j can hold.  Each
    shape's levels are multiples of a = alpha(0) and its weights of
    b = beta(1), so a path of n steps weighs a multiple of a per level step
    and of b per step up and back down, and row n's terms are among those
    of v_n = a v_{n-1} + b v_{n-2}, from v_{-1} = 0 and v_0 = 1.  ``steps``
    holds the exponent pairs (i, j) of the terms r^i y^j of a, then of b.
    The recurrence runs on bitsets with | for +, bit i + j*stride for
    r^i y^j, so a term that may cancel counts too, and the stride exceeds
    every i of the last row."""
    stride, fill = order * max((i for s in steps for i, _ in s), default=0) + 1, [0, 1]
    for _ in range(order):
        fill.append(reduce(int.__or__, [fill[-1 - k] << i + j * stride for k, s in enumerate(steps) for i, j in s], 0))
    return [fill[-1] >> s & (1 << stride) - 1 for s in range(0, fill[-1].bit_length(), stride)]


def _rows(multipliers, a: list, B: list, order: int) -> list[list[int]]:
    """Rows 0..order of the recurrence of a shape's ``multipliers`` on
    packed ints, for a and B as ``_pack`` gives them.  Multipliers of 1 are
    skipped: dividing each row of the other shapes by 1 took 4-7% longer at
    N = 100."""
    out = [[1], _fma([], a, [1])]
    for n in range(2, order + 1):
        p0, p1, p2 = multipliers(n)
        row = _fma(_fma([], a, out[-1], p1), B, out[-2], p2)
        out.append(row if p0 == 1 else [v // p0 for v in row])
    return out[: order + 1]


def _row_recurrence(a: MultiPoly, b: MultiPoly, shape: str, width: "int | None", order: int, read) -> list[list]:
    """Rows 0..order of p0(n) P_n = p1(n) a P_{n-1} + p2(n) B P_{n-2},
    P_0 = 1, P_1 = a, with ``SHAPES[shape]`` giving p0, p1, p2 and B, as
    :meth:`JFraction.rows` returns them, for a and b of integer
    coefficients: packed in slots of ``width`` bits, or on MultiPoly where
    width is None, as the plan's :func:`_layout` gives it.  ``read`` reads
    the entries only when the rows run packed; rows run on MultiPoly give
    their coefficients, ints or MultiPolys whatever ``read`` is.
    """
    multipliers, weight = SHAPES[shape]
    if width is None:
        polys, B = [MultiPoly.const(1), a], weight(a, b)
        for n in range(2, order + 1):
            p0, p1, p2 = multipliers(n)
            v = (a if p1 == 1 else a * p1) * polys[-1] + B * p2 * polys[-2]
            polys.append(v if p0 == 1 else _wrap({m: c // p0 for m, c in v.items()}))
        return [[tidy(c) for c in p.y_coefficients()] for p in polys[: order + 1]]
    out = []
    for row in _rows(multipliers, _pack(a, width), _pack(weight(a, b), width), order):
        while len(row) > 1 and not row[-1]:
            row.pop()
        entries = {v: read(v, width) for v in set(row)}  # h rows are palindromes
        out.append([entries[v] for v in row])
    return out

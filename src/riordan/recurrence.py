"""The three-term row recurrence of the two shaped J-fractions.

:meth:`~riordan.jfraction.JFraction.rows` expands a fraction that stops at
level 1, or a Hermite fraction, by P_n = a P_{n-1} + c_n b P_{n-2}, in O(N)
rows: the family triangles of ``show``, the simplex and the hypercube, and
every ``jf`` of those shapes.  Only those expansions import this module;
the Motzkin walk, which expands every other fraction, is
:mod:`riordan.walk`.
"""

from __future__ import annotations

from functools import reduce

from .algebra import MAX_WIDTH, MultiPoly, _fma, _pack, _unpack, tidy
from .jfraction import _denominator


def _row_recurrence(a: MultiPoly, b: MultiPoly, hermite: bool, order: int, read) -> list[list]:
    """Rows 0..order of P_n = a P_{n-1} + c_n b P_{n-2}, P_0 = 1, P_1 = a,
    with c_n = n - 1 if ``hermite`` and 1 otherwise, as :meth:`JFraction.rows`
    returns them.  ``read`` reads the entries only when the rows run packed
    with D = 1; with D != 1 they are unpacked and divided by D^n, and rows
    run on MultiPoly give their coefficients, so those entries come back
    as ints, Fractions or MultiPolys whatever ``read`` is.

    The rows run on packed integers (see :mod:`riordan.algebra`), on D a
    and D^2 b for the common denominator D of a and b, so row n is D^n
    times the true one.  Run first on the sums of absolute coefficients of
    those weights, the recurrence bounds every coefficient of every row;
    the slot width is that bound's bits and a sign bit, in whole bytes.
    Run with | for + on a bitset (bit i + j*stride for r^i y^j), it finds
    the terms the last row can have.  Packing gives every slot r^0..r^i of
    a y-coefficient the full width, so the rows run on MultiPoly instead
    when those terms fill fewer than half of their slots or the width
    exceeds MAX_WIDTH bits, where coefficients of very different sizes share
    it.  Measured at N = 36-100, packing was 1.6-5x faster on dense rows
    of slots up to 1500 bits, 0.7-1x as fast at 1800-2300 bits, and up to
    12x slower from 2600 bits or on sparse rows.
    """
    den = _denominator(a, b)

    def rows(a, b):
        out = [[1], _fma([], a, [1])]
        for n in range(2, order + 1):
            out.append(_fma(_fma([], a, out[-1]), [[((n - 1) * c, s) for c, s in t] for t in b] if hermite else b, out[-2]))
        return out[: order + 1]

    bound = max(row[0] for row in rows(*([[(sum(abs(c) for _, c in p.items()), 0)]] for p in (a * den, b * den**2))))
    width = (bound.bit_length() + 8) // 8 * 8
    stride = order * max(a.degree("r"), b.degree("r")) + 1
    masks = [0, 1]  # P_{-1} = 0, P_0 = 1; each term r^i y^j of a shifts P_{n-1}'s, each of b P_{n-2}'s
    for _ in range(order):
        masks.append(reduce(int.__or__, [masks[-1 - k] << i + j * stride for k, w in enumerate((a, b)) for (i, j), _ in w.items()], 0))
    slots = sum((masks[-1] >> s & (1 << stride) - 1).bit_length() for s in range(0, masks[-1].bit_length(), stride))
    if width > MAX_WIDTH or 2 * masks[-1].bit_count() < slots:
        polys = [MultiPoly.const(1), a]
        for n in range(2, order + 1):
            polys.append(a * polys[-1] + b * (n - 1 if hermite else 1) * polys[-2])
        return [[tidy(c) for c in p.y_coefficients()] for p in polys[: order + 1]]
    out, read = [], read if den == 1 else _unpack
    for n, row in enumerate(rows(_pack(a * den, width), _pack(b * den**2, width))):
        while len(row) > 1 and not row[-1]:
            row.pop()
        entries = {v: read(v, width) for v in set(row)}  # h rows are palindromes
        if den != 1:
            from fractions import Fraction

            entries = {v: tidy(p * Fraction(1, den**n)) for v, p in entries.items()}
        out.append([entries[v] for v in row])
    return out

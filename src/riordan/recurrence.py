"""The three-term row recurrence of the two shaped J-fractions.

:meth:`~riordan.jfraction.JFraction.rows` expands a fraction that stops at
level 1, or a Hermite fraction, by P_n = a P_{n-1} + c_n b P_{n-2}, in O(N)
rows: the family triangles of ``show``, the simplex and the hypercube, and
every ``jf`` of those shapes.  Only those expansions import this module;
the Motzkin walk, which expands every other fraction, is
:mod:`riordan.walk`.
"""

from __future__ import annotations

from .algebra import MultiPoly, _fill, _fma, _norm, _pack, _width, tidy


def _row_recurrence(a: MultiPoly, b: MultiPoly, hermite: bool, order: int, read) -> list[list]:
    """Rows 0..order of P_n = a P_{n-1} + c_n b P_{n-2}, P_0 = 1, P_1 = a,
    with c_n = n - 1 if ``hermite`` and 1 otherwise, as :meth:`JFraction.rows`
    returns them, for a and b of integer coefficients.  ``read`` reads the
    entries only when the rows run packed; rows run on MultiPoly give their
    coefficients, ints or MultiPolys whatever ``read`` is.

    The rows run on packed integers, r -> 2^width (see
    :mod:`riordan.algebra`, which holds the packing rules).  Run first on
    the norms of the weights, the recurrence bounds every coefficient of
    every row, and the slot width is ``_width`` of that bound.  The rows
    run on MultiPoly instead where the terms the last row can hold
    (``_fill``, r packed and y the row's index) fill fewer than half of
    their slots, or past ``MAX_WIDTH``, where coefficients of very
    different sizes share a width.  Measured at N = 36-100, packing was
    1.6-5x faster on dense rows of slots up to 1500 bits, 0.7-1x as fast
    at 1800-2300 bits, and up to 12x slower from 2600 bits or on sparse
    rows.
    """
    def rows(a, b):
        out = [[1], _fma([], a, [1])]
        for n in range(2, order + 1):
            out.append(_fma(_fma([], a, out[-1]), [[((n - 1) * c, s) for c, s in t] for t in b] if hermite else b, out[-2]))
        return out[: order + 1]

    bound = max(row[0] for row in rows(*([[(_norm(p), 0)]] for p in (a, b))))
    width = _width(bound, _fill([[m for m, _ in w.items()] for w in (a, b)], order), 2)
    if width is None:
        polys = [MultiPoly.const(1), a]
        for n in range(2, order + 1):
            polys.append(a * polys[-1] + b * (n - 1 if hermite else 1) * polys[-2])
        return [[tidy(c) for c in p.y_coefficients()] for p in polys[: order + 1]]
    out = []
    for row in rows(_pack(a, width), _pack(b, width)):
        while len(row) > 1 and not row[-1]:
            row.pop()
        entries = {v: read(v, width) for v in set(row)}  # h rows are palindromes
        out.append([entries[v] for v in row])
    return out

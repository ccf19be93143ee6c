"""The Motzkin walk: the expansion of a J-fraction that no row recurrence fits.

:func:`packed` walks an integral fraction free of r on ints: its t[0]
values at y = 2^width.  :meth:`~riordan.jfraction.JFraction.rows` takes
its rows from :func:`rows`: a y-packed walk's from the digits of those
values, a MultiPoly walk's from the series of
:meth:`~riordan.jfraction.JFraction.expand`, which delegates to
:func:`expand` here.  Only that series loads :mod:`riordan.series`.  Only
the expansions that take the walk import this module: the permutahedron,
every ``jf`` whose fraction has levels in i and is of no shape of
:mod:`riordan.recurrence`, and the checks and tests that walk on purpose
(``verify group``'s two continued-fraction laws call :func:`packed` and
:func:`_bound`).  The walk decides nothing itself: :func:`_layout` gives
its layout and slot width, which :meth:`JFraction.plan` holds for the
rows and :meth:`JFraction.expand` takes by default, and the walk runs in
the layout it is given.

The walk counts weighted Motzkin paths (Flajolet 1980).  t[k] weighs the
paths so far that end at height k; a step maps it to
t'[k] = t[k-1] + alpha(k) t[k] + beta(k+1) t[k+1], from t = [1], and
coefficient n is t[0] after n steps.  Heights above min(n, order - n)
cannot return to 0 by x^order and are dropped, so the walk takes O(N^2)
height-steps.

An integral fraction free of r walks on packed integers, y -> 2^width
(see :mod:`riordan.algebra`, which holds the packing rules): each t[k] is
the int t[k](2^width), y^j at slot j, and each level weight is evaluated
once into the pairs (c, width*j) of its y-coefficients c of y^j, so its
product with a packed value is a small product and a shift per term
(:func:`_times`).  The width is proved before the walk: the same walk on
plain ints, each weight replaced by its norm (:func:`_bound`), bounds
every coefficient of every t[0] read, and the width is ``_width`` of that
bound.  The same walk bounds the coefficients of every integral fraction,
weights in r included, so every integral plan has a bound.  Past ``MAX_WIDTH`` bits,
or with weights in r or with a non-integer coefficient, the walk runs on
MultiPoly; so it does where the powers of y a coefficient can hold
(``_fill``, a level step adding a power of some alpha(k), a step up and
back down one of some beta(k)) fill fewer than 1/16 of its slots: with
weights y^32 and y (a fraction free of i, which ``rows`` expands by the
row recurrence instead), each coefficient fills one slot in 64 and the
packed walk took 2.6x as long.  Measured at N = 40-100 on a 2-core x86-64
machine, the MultiPoly walk overtakes the packed one between a fill of
1/16 (packed 1.4x faster) and 1/32 (1.5x slower).  Packing r as well,
r^i y^j at slot i + stride*j with ``_fill``'s stride and the same 1/16
rule over the whole int, gave the same rows in a probe at N = 40 (same
machine): about 3x faster on dense weights in r (const-face 104-121 ->
34-44 ms, the ordinary family's f fraction 90 -> 27-30 ms), 2x slower on
wide ones (``1; i*(2^64*r - r^30)``: 38-43 -> 83-93 ms), and refused by
its density rule where the powers of r and y rise together (perm-gamma,
from N = 16), which a skewed layout (r^i y^j at slot q*i - p*j for the
least ratio p/q of the weights' powers) would keep dense.
"""

from functools import lru_cache, partial

from .algebra import MultiPoly, _digits, _fill, _norm, _unpack_y, _width, tidy


def _layout(frac, order: int) -> tuple:
    """The walk's slot width and bound for coefficients 0..order of the
    fraction, as :class:`~riordan.jfraction.Plan` holds them: (width,
    bound) packed, y -> 2^width, or (None, bound) on MultiPoly, for weights
    in r or where the slots would be too sparse or too wide.  Only a
    fraction with a non-integer coefficient, which only
    :meth:`JFraction.expand`'s rational oracle walks, has no bound: (None,
    None).  :meth:`JFraction.plan` and :meth:`JFraction.expand` both take
    the walk's layout from here."""
    terms = [term for p in frac for q in p.coeffs for term in q.items()]
    if not all(type(c) is int for _, c in terms):
        return None, None
    bound = _bound(frac, order)
    if any(i for (i, _), _ in terms):
        return None, bound
    steps = [{(j, 0) for w in ws for (_, j), _ in w.items()} for ws in _levels(frac, order)]
    return _width(bound, _fill(steps, order), 16), bound


def _bound(frac, order: int) -> int:
    """The norm walk of an integral fraction: the same walk on plain ints,
    each weight replaced by its norm, whose largest t[0] bounds the norm of
    every t[0] read, and so every coefficient, in r and y alike."""
    return max(_walk(*([_norm(w).__mul__ for w in ws] for ws in _levels(frac, order)), order))


def packed(frac, order: int, width: int) -> list[int]:
    """t[0] after 0..order steps of an integral fraction free of r, each the
    int it takes at y = 2^width, y^j at slot j.  Substituting 2^width is a
    ring map, so each value is exact whatever the width; its digits are the
    coefficients where each is below 2^(width-1) in absolute value, as at
    the width of ``_bound``."""
    return _walk(*([partial(_times, [(c, width * j) for (_, j), c in w.items()]) for w in ws] for ws in _levels(frac, order)), order)


def expand(frac, order: int, plan) -> "TruncatedSeries":
    """The body of :meth:`JFraction.expand`: coefficients 0..order of the
    fraction, the first the int 1 and each other a MultiPoly, walked in
    the plan's layout (:func:`_layout`): :func:`packed` at y -> 2^width and
    unpacked, or on MultiPoly where its width is None.  The series refuses
    a negative order (ValueError)."""
    from .series import TruncatedSeries

    if not plan.width:
        return TruncatedSeries(_walk(*([w.__mul__ for w in ws] for ws in _levels(frac, order)), order), order)
    return TruncatedSeries([1] + [_unpack_y(v, plan.width) for v in packed(frac, order, plan.width)[1:]], order)


def rows(frac, order: int, plan) -> list[list]:
    """Rows 0..order of the walk as :meth:`JFraction.rows` returns them,
    row n the y-coefficients of [x^n] up to its last nonzero one (a zero
    row is [0]).  Walked y-packed, they are the digits of :func:`packed`'s
    values, y^j at slot j, with no series; on MultiPoly they come from
    :meth:`JFraction.expand`'s series, as the oracle's do."""
    if not plan.width:
        return [[tidy(c) for c in MultiPoly.coerce(s).y_coefficients()] for s in frac.expand(order, plan)]
    out = []
    for value in packed(frac, order, plan.width):
        row = _digits(value, plan.width)
        while len(row) > 1 and not row[-1]:
            row.pop()
        out.append(row)
    return out


@lru_cache(maxsize=2)
def _levels(frac, order: int) -> list[list]:
    """alpha(0..) and beta(1..) at every level a walk to x^order reaches,
    each evaluated by :meth:`IndexPoly.__call__`.  The last two fractions'
    are kept: the rows' plan (:func:`_layout`) and then the walk ask for the
    same levels, the continued-fraction law of ``verify group`` bounds two
    fractions before it walks them, and none changes them."""
    return [[p(k) for k in ks] for p, ks in zip(frac, (range(order // 2 + 1), range(1, order // 2 + 2)))]


def _walk(a, b, order: int) -> list:
    """Coefficients 0..order of the walk whose level weights act by the
    functions a[k] (alpha(k) times a value) and b[k] (beta(k+1) times a
    value): on MultiPoly, on packed ints or on the ints of the bound."""
    t, out = [1], [1]
    for n in range(1, order + 1):
        t = [0] + t + [0, 0]
        t = [t[k] + a[k](t[k + 1]) + b[k](t[k + 2]) for k in range(min(n, order - n) + 1)]
        out.append(t[0])
    return out


def _times(terms: list[tuple[int, int]], value: int) -> int:
    """The weight whose y-terms are the pairs (c, shift) times the packed
    value (a loop: about a fifth faster than ``sum`` of a generator here)."""
    out = 0
    for c, shift in terms:
        out += c * value << shift
    return out

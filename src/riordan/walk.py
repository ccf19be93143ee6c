"""The Motzkin walk: the expansion of a J-fraction that no row recurrence fits.

The walk counts weighted Motzkin paths (Flajolet 1980).  t[k] weighs the
paths so far that end at height k; a step maps it to
t'[k] = t[k-1] + alpha(k) t[k] + beta(k+1) t[k+1], from t = [1], and
coefficient n is t[0] after n steps.  Heights above min(n, order - n)
cannot return to 0 by x^order and are dropped, so the walk takes O(N^2)
height-steps.

:meth:`~riordan.jfraction.JFraction.rows` takes a walk's rows from
:func:`rows`, in the layout of its plan: :func:`_layout` gives the layout
and slot width, which :meth:`JFraction.plan` holds, and the walk decides
nothing itself.

* y-packed: an integral fraction free of r walks on ints, y -> 2^width
  (see :mod:`riordan.algebra`, which holds the packing rules):
  :func:`packed` gives each t[0] as the int t[0](2^width), y^j at slot j,
  and each level weight is evaluated once into the pairs (c, width*j) of
  its y-coefficients c of y^j, so its product with a packed value is a
  small product and a shift per term (:func:`_times`).  The rows are the
  digits of those values, read with no series.  The width is proved
  before the walk: the same walk on plain ints, each weight replaced by
  its norm (:func:`_norm_walk`), bounds every coefficient of every t[0]
  read, and the width is ``_width`` of that bound.  The same walk bounds the
  coefficients of every integral fraction, weights in r included, so
  every plan has a bound.
* MultiPoly: weights in r, and slots past ``MAX_WIDTH``.  The rows are
  the y-coefficients of the series of :meth:`JFraction.expand`, whose body
  is :func:`expand`; only that series loads :mod:`riordan.series`.

A walk free of r packs however few of its slots its powers of y fill.
On five fractions whose coefficient of x^100 fills one slot in 30 to one
in 400 (``(i+1)*y^31; i*y``, ``(i+1)*y^30; i*y^2``, ``(i+1)*y^4; i*y^8``,
``(i+1)*y^16; i*y^16`` and ``(i+1)*y^16; i*(i+1)*y^16``), ``riordan jf``
took 0.67-0.94x the time of the MultiPoly walk at N = 40 and 60, and
0.97-1.07x at N = 100 (medians of 11 alternating subprocess runs, 2-core
x86-64).

:func:`expand` walks on MultiPoly alone, any fraction, a rational one
included, with no plan.  So it shares no packed code, and it is the
oracle that the tests check the packed walk against.

Only the expansions that take the walk import this module: the
permutahedron, every ``jf`` whose fraction has levels in i and is of no
shape of :mod:`riordan.recurrence`, and the checks and tests that walk on
purpose (``verify group``'s two continued-fraction laws call
:func:`packed` and :func:`_norm_walk`).
"""

from functools import lru_cache, partial

from .algebra import MultiPoly, _digits, _norm, _width, tidy


def _layout(frac, order: int) -> tuple:
    """The walk's slot width and bound for coefficients 0..order of an
    integral fraction, as :class:`~riordan.jfraction.Plan` holds them:
    (width, bound) packed, y -> 2^width, or (None, bound) on MultiPoly, for
    weights in r or slots past ``MAX_WIDTH``.  :meth:`JFraction.plan` asks
    once it has cleared the common denominator, so the fraction is
    integral."""
    bound = max(_norm_walk(frac, order))
    if any(i for p in frac for q in p.coeffs for (i, _), _ in q.items()):
        return None, bound
    return _width(bound), bound


def _norm_walk(frac, order: int) -> list[int]:
    """The norm walk of an integral fraction: the same walk on plain ints,
    each weight replaced by its norm, whose t[0] after n steps bounds the
    norm of the walk's, and so each of its coefficients, in r and y alike."""
    return _walk(*([_norm(w).__mul__ for w in ws] for ws in _levels(frac, order)), order)


def packed(frac, order: int, width: int) -> list[int]:
    """t[0] after 0..order steps of an integral fraction free of r, each the
    int it takes at y = 2^width, y^j at slot j.  Substituting 2^width is a
    ring map, so each value is exact whatever the width; its digits are the
    coefficients where each is below 2^(width-1) in absolute value, as at
    the width of the largest value of ``_norm_walk``."""
    return _walk(*([partial(_times, [(c, width * j) for (_, j), c in w.items()]) for w in ws] for ws in _levels(frac, order)), order)


def expand(frac, order: int) -> "TruncatedSeries":
    """The body of :meth:`JFraction.expand`: coefficients 0..order of the
    fraction, the first the int 1 and each other a MultiPoly, walked on
    MultiPoly.  The series refuses a negative order (ValueError)."""
    from .series import TruncatedSeries

    return TruncatedSeries(_walk(*([w.__mul__ for w in ws] for ws in _levels(frac, order)), order), order)


def rows(frac, order: int, plan) -> list[list]:
    """Rows 0..order of the walk as :meth:`JFraction.rows` returns them,
    row n the y-coefficients of [x^n] up to its last nonzero one (a zero
    row is [0]).  Walked y-packed, they are the digits of :func:`packed`'s
    values, y^j at slot j, with no series; on MultiPoly they are the
    y-coefficients of :meth:`JFraction.expand`'s series."""
    if not plan.width:
        return [[tidy(c) for c in MultiPoly.coerce(s).y_coefficients()] for s in frac.expand(order)]
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

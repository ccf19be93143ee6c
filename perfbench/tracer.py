"""Per-layer timing of the ``riordan`` package, wrapped from outside.

:class:`Tracer` replaces the package's public functions and methods with
timing wrappers while it is installed and puts the originals back when it
is removed; the package's source is never edited.

* Free functions are rebound in every ``riordan`` module that holds them
  by name (``verify`` and ``families`` import ``gamma_from_h``,
  ``triangle_from_series``, ``face_matrix`` and ``check_triangle``; ``cli``
  imports ``h_matrix``, ``f_matrix`` and ``gamma_matrix``), since patching
  only the defining module would miss those calls.
* Methods are replaced on their class, reflected operators included
  (``__rmul__``, ``__radd__``).
* Calls above the coefficient ring become spans ``(request, id, parent,
  name, start, end)`` kept in memory.  ``MultiPoly`` ring operations run
  hundreds of thousands of times per request, so they only bump a counter
  and a self-time sum.

Self time is a call's duration minus the time spent in wrapped calls made
from inside it.  Harness work done after a call returns (scanning a result
for coefficient growth, counting checks) is charged to neither the call's
self time nor its caller's.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Growth:
    """Largest ``MultiPoly`` term count and coefficient bit length seen."""

    max_terms: int = 0
    max_coeff_bits: int = 0


@dataclass
class Tracer:
    stats: dict[str, LayerStat] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    growth: Growth = field(default_factory=Growth)
    expand_order_sum: int = 0
    # Calls per (caller span name, callee span name), e.g. compose per revert.
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    checks: int = 0
    checks_failed: int = 0
    request_id: int = 0
    _frames: list = field(default_factory=list)  # [child_s] per active wrapped call
    _open_spans: list = field(default_factory=list)  # (span id, name) per active span
    _patches: list = field(default_factory=list)

    def stat(self, name: str) -> LayerStat:
        return self.stats.setdefault(name, LayerStat())

    # -- wrappers -----------------------------------------------------------------

    def counted(self, fn, name: str):
        """Counter-only wrapper for the hot coefficient-ring operations."""
        stat = self.stat(name)
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                stat.total_s += elapsed
                if frames:
                    frames[-1][0] += elapsed

        return wrapper

    def spanned(self, fn, name: str, after=None):
        """Span-recording wrapper; ``after(args, result)`` runs untimed."""
        stat = self.stat(name)
        frames, open_spans, spans, edges = self._frames, self._open_spans, self.spans, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = open_spans[-1] if open_spans else (None, None)
            edge = (parent[1], name)
            edges[edge] = edges.get(edge, 0) + 1
            span_id = len(spans)
            spans.append(None)
            frame = [0.0]
            frames.append(frame)
            open_spans.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                open_spans.pop()
                stat.calls += 1
                stat.self_s += end - start - frame[0]
                stat.total_s += end - start
                spans[span_id] = (self.request_id, span_id, parent[0], name, start, end)
            if after is not None:
                after(args, result)
            if frames:
                frames[-1][0] += clock() - start
            return result

        return wrapper

    # -- result inspection -----------------------------------------------------------

    def _scan(self, entries):
        g = self.growth
        for e in entries:
            coeffs = [c for _, c in e.items()] if hasattr(e, "items") else [e]
            g.max_terms = max(g.max_terms, len(coeffs))
            for c in coeffs:
                bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                g.max_coeff_bits = max(g.max_coeff_bits, bits)

    def _scan_matrix(self, args, matrix):
        self._scan(e for row in matrix.rows for e in row)

    def _after_expand(self, args, series):
        self.expand_order_sum += args[1] if len(args) > 1 else 0
        self._scan(series.coeffs)

    def _after_suite(self, args, results):
        self.checks += len(results)
        self.checks_failed += sum(not r.ok for r in results)

    # -- installation -----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attrs, name, after=None, counted=False):
        for attr in attrs:
            original = cls.__dict__[attr]
            wrapped = self.counted(original, name) if counted else self.spanned(original, name, after)
            self._set(cls, attr, wrapped)

    def _patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        wrapped = self.spanned(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "riordan" and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def install(self):
        from riordan import algebra, arrays, cli, families, jfraction, oeis, series, verify

        mp = algebra.MultiPoly
        self._patch_method(mp, ("__mul__", "__rmul__"), "algebra.mul", counted=True)
        self._patch_method(mp, ("__add__", "__radd__"), "algebra.add", counted=True)
        self._patch_method(mp, ("__init__",), "algebra.construct", counted=True)

        ts = series.TruncatedSeries
        self._patch_method(ts, ("__mul__", "__rmul__"), "series.mul")
        for op in ("inverse", "compose", "revert", "exp"):
            self._patch_method(ts, (op,), f"series.{op}")

        scan = self._scan_matrix
        self._patch_method(arrays.RiordanArray, ("matrix",), "arrays.matrix", scan)
        self._patch_method(arrays.RiordanArray, ("__mul__", "inverse"), "arrays.group_op")
        self._patch_method(arrays.LowerTriMatrix, ("__mul__",), "arrays.tri_mul", scan)
        self._patch_function(arrays, "triangle_from_series", "arrays.from_series", scan)
        self._patch_function(arrays, "face_matrix", "arrays.face_matrix")

        self._patch_method(jfraction.JFraction, ("expand",), "jfraction.expand", self._after_expand)
        self._patch_function(jfraction, "parse_index_poly", "jfraction.parse")
        self._patch_function(jfraction, "parse_poly", "jfraction.parse")

        for fn in ("gamma_from_h", "h_matrix", "f_matrix", "gamma_matrix", "family_array", "named_triple"):
            self._patch_function(families, fn, f"families.{fn}")

        self._patch_function(oeis, "check_triangle", "oeis.check")
        self._patch_function(oeis, "check_sequence", "oeis.check")

        for suite in ("group", "props", "oeis"):
            self._patch_function(verify, f"{suite}_suite", f"verify.{suite}", self._after_suite)

        self._patch_method(cli.OutputDoc, ("render",), "cli.render")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def request(self, fn, *args):
        """Run one request under a top-level span of its own id."""
        self.request_id += 1
        return self.spanned(fn, "request")(*args)

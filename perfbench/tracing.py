"""Spans and counts around the package's public functions, from outside.

The package's modules import each other's functions by name, so a wrapper
must replace every module attribute that holds the function, not only the
defining one: ``localgeom.eval_jet3``, ``locus.invariant_grid``,
``cli.invariant_grid`` and so on.  :class:`Tracer` does that for each target
and restores the originals on :meth:`Tracer.uninstall`.

Spans live in memory as ``[id, parent, name, start_ns, end_ns, points,
raised, extra]``, where ``extra`` is the vertex or report count of the locus
searches; self time is a span's duration minus its direct children's, so
the self times of one job's spans sum exactly to the job span's duration.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# (module, function, how to count the points one call evaluates)
TARGETS = [
    ("cli", "run", None), ("cli", "grid_rows", None),
    ("cli", "analyze_record", None), ("cli", "selfcheck_report", None),
    ("surfacefile", "parse_surface_file", None), ("expr", "parse_expression", None),
    ("jets", "eval_jet3", "xy"),
    ("localgeom", "frame_fields", "fields"), ("localgeom", "invariant_grid", "xy"),
    ("localgeom", "invariant_gradients", None), ("localgeom", "gradient_fields", None),
    ("localgeom", "local_invariants", None), ("localgeom", "delta_resultant", None),
    ("localgeom", "brioschi_field", None),
    ("classify", "class_labels_grid", None), ("classify", "classify_point", None),
    ("classify", "hessian_of_delta", None), ("classify", "asymptotic_directions", None),
    ("classify", "binormals", None),
    ("conics", "indicatrix", None), ("conics", "sample_indicatrix", None),
    ("conics", "sample_characteristic", None),
    ("svgplot", "render_normal_plane", None),
    ("heightfn", "degenerate_normals", None), ("heightfn", "classify_height", None),
    ("locus", "trace_parabolic", None), ("locus", "find_inflections", None),
]

JET_BYTES_PER_POINT = 10 * 8   # ten float64 coefficients of an order-3 jet


def _points(how, args):
    import numpy as np
    if how == "xy":
        return int(np.broadcast(args[1], args[2]).size)
    first = args[0][0]
    return int(np.size(getattr(first, "val", first)))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []
        self._patched = []

    def install(self):
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "monge4" or n.startswith("monge4."))]
        for mod_name, fn_name, how in TARGETS:
            mod = sys.modules.get(f"monge4.{mod_name}")
            orig = getattr(mod, fn_name, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, how)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    def _open(self, name, points):
        span = [len(self.spans), self.stack[-1][0] if self.stack else None,
                name, time.perf_counter_ns(), None, points, None, None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span, exc=None):
        span[4] = time.perf_counter_ns()
        span[6] = None if exc is None else type(exc).__name__
        self.stack.pop()

    def _wrap(self, name, fn, how):
        def wrapper(*args, **kwargs):
            span = self._open(name, _points(how, args) if how else 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            self._close(span)
            if name == "locus.trace_parabolic":
                span[7] = sum(len(pl.points) for pl in result.polylines)
            elif name == "locus.find_inflections":
                span[7] = len(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def job(self, name):
        """The root span of one benchmark job."""
        span = self._open(name, 1)
        try:
            yield span
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span)

    def take(self):
        """Aggregate and clear the spans recorded so far.

        Returns (per-name totals, the spans with self times).  Totals hold
        ``self_ns``, ``calls``, ``points`` and ``raised``; the locus targets
        add ``vertices``, ``reports`` and ``gradient_calls``, and
        ``bench.job`` the largest gap between a job span's duration and the
        sum of its subtree's self times (0 when spans nest properly).
        """
        spans, self.spans = self.spans, []
        child_ns = defaultdict(int)
        for s in spans:
            if s[1] is not None:
                child_ns[s[1]] += s[4] - s[3]
        totals = defaultdict(lambda: defaultdict(int))
        names = {s[0]: s[2] for s in spans}
        parents = {s[0]: s[1] for s in spans}
        rows = []
        root_of, root_self = {}, defaultdict(int)
        for s in spans:
            self_ns = s[4] - s[3] - child_ns[s[0]]
            root_of[s[0]] = s[0] if s[1] is None else root_of[s[1]]
            root_self[root_of[s[0]]] += self_ns
            t = totals[s[2]]
            t["self_ns"] += self_ns
            t["calls"] += 1
            t["points"] += s[5]
            t["raised"] += s[6] is not None
            if s[6] is not None and s[6] != "InflectionPointError":
                totals["bench.unexpected"]["raised"] += 1
            if s[2] == "locus.trace_parabolic" and s[7] is not None:
                t["vertices"] += s[7]
            if s[2] == "locus.find_inflections" and s[7] is not None:
                t["reports"] += s[7]
            if s[2] == "localgeom.invariant_gradients":
                p = s[1]
                while p is not None and names[p] != "locus.find_inflections":
                    p = parents[p]
                if p is not None:
                    totals["locus.find_inflections"]["gradient_calls"] += 1
            rows.append({"id": s[0], "parent": s[1], "name": s[2],
                         "start_ns": s[3], "end_ns": s[4], "self_ns": self_ns,
                         "points": s[5], "raised": s[6]})
        gaps = [abs(root_self[s[0]] - (s[4] - s[3])) for s in spans if s[1] is None]
        totals["bench.job"]["self_sum_gap_ns"] = max(gaps, default=0)
        return {k: dict(v) for k, v in totals.items()}, rows

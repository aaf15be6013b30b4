"""Spans around calls into framecalc's public functions, recorded from
outside the package.

``Tracer.install()`` replaces each listed function, by name, in every
``framecalc`` module namespace that binds it (and the two render methods on
``CheckReport``) with a wrapper that records a span: layer name, function,
start, end, parent span and op id. Spans stay in memory; ``summary()`` turns
them into per-layer metrics and ``write()`` saves them as JSON lines.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

# layer metric -> (defining module, function names)
LAYERS = {
    "cli.main": ("framecalc.cli", ("main",)),
    "catalog.load_builtin": ("framecalc.catalog", ("load_builtin",)),
    "manifold_format.parse_manifold": ("framecalc.manifold_format", ("parse_manifold",)),
    "reports.render": ("framecalc.reports", ("combine",)),
    "geometry.validate": ("framecalc.geometry", ("validate",)),
    "geometry.levi_civita": ("framecalc.geometry", ("levi_civita",)),
    "geometry.curvature": ("framecalc.geometry", ("curvature",)),
    "geometry.ricci": ("framecalc.geometry", ("ricci", "ricci_operator", "scalar_curvature")),
    "geometry.covariant_derivative_endo": ("framecalc.geometry", ("covariant_derivative_endo",)),
    "contact.almost_contact": ("framecalc.contact", ("check_almost_contact",)),
    "contact.sasakian": ("framecalc.contact", ("check_sasakian",)),
    "contact.normality": ("framecalc.contact", ("check_normality",)),
    "contact.reeb": ("framecalc.contact", ("check_reeb_ricci", "check_curvature_identity")),
    "solitons.solve_lambda": ("framecalc.solitons", ("solve_lambda_trace",)),
    "solitons.residual": ("framecalc.solitons", ("soliton_residual",)),
    "solitons.gradient": ("framecalc.solitons", ("gradient_soliton_residual",
                                                 "check_gradient_curvature_identity")),
    "scalars.parse_scalar": ("framecalc.scalars", ("parse_scalar",)),
}
RENDER_METHODS = ("render_text", "render_json")
COUNTED = ("manifold_format.parse_manifold", "geometry.levi_civita", "geometry.curvature")
NNZ = {"geometry.levi_civita": "geometry.conn_nnz", "geometry.curvature": "geometry.curv_nnz"}


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, function, start, end, parent, op]
        self.nnz = []    # (op, metric, count)
        self.stack = []
        self.op = None
        self.patched = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, fn.__name__, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if layer in NNZ:
                # counted inside a span of its own, so no layer is charged for it
                t0 = time.perf_counter()
                self.nnz.append((self.op, NNZ[layer], sum(1 for _ in result.nonzero())))
                spans.append(["bench.count", "nonzero", t0, time.perf_counter(),
                              stack[-1] if stack else -1, self.op])
            return result
        return wrapper

    def install(self) -> None:
        import framecalc  # noqa: F401
        import framecalc.cli  # noqa: F401
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "framecalc" or name.startswith("framecalc."))]
        for layer, (home, names) in LAYERS.items():
            for fname in names:
                orig = getattr(sys.modules[home], fname)
                wrapper = self._wrap(layer, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self.patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        report_cls = sys.modules["framecalc.reports"].CheckReport
        for meth in RENDER_METHODS:
            orig = getattr(report_cls, meth)
            self.patched.append((report_cls, meth, orig))
            setattr(report_cls, meth, self._wrap("reports.render", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched.clear()

    def write(self, path: Path, labels: list) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for layer, fname, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": layer, "function": fname, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "op_label": labels[op]}) + "\n")

    def summary(self, walls: list, labels: list, factors: list) -> tuple:
        """Per-layer metrics over ops 0..len(walls)-1, plus a breakdown by
        op label. ``_ms`` is the median, over the ops that enter the layer,
        of the layer's self time in the op, scaled by the op's speed factor
        like ``walls``; ``_calls`` is the largest number of calls one op
        made; ``_nnz`` is the median nonzero count of the results. A layer
        that no op enters reads 0."""
        n = len(walls)
        self_ms = [dict() for _ in range(n)]
        calls = [dict() for _ in range(n)]
        top_ms = [0.0] * n
        child = [0.0] * len(self.spans)
        for layer, _f, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (layer, _f, start, end, parent, op) in enumerate(self.spans):
            own = (end - start - child[idx]) * 1000 * factors[op]
            self_ms[op][layer] = self_ms[op].get(layer, 0.0) + own
            calls[op][layer] = calls[op].get(layer, 0) + 1
            if parent < 0:
                top_ms[op] += (end - start) * 1000 * factors[op]
        nnz = [dict() for _ in range(n)]
        for op, metric, count in self.nnz:
            nnz[op][metric] = max(nnz[op].get(metric, 0), count)

        def med(values):
            return statistics.median(values) if values else 0.0

        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}_ms"] = med([s[layer] for s in self_ms if layer in s])
        for layer in COUNTED:
            metrics[f"{layer}_calls"] = max((c.get(layer, 0) for c in calls), default=0)
        for metric in NNZ.values():
            metrics[metric] = med([c[metric] for c in nnz if metric in c])
        metrics["bench.other_ms"] = med([w - t for w, t in zip(walls, top_ms)])

        breakdown = {}
        for op in range(n):
            row = breakdown.setdefault(labels[op], {"ops": 0})
            row["ops"] += 1
            for layer in COUNTED:
                row[f"{layer}_calls"] = max(row.get(f"{layer}_calls", 0),
                                            calls[op].get(layer, 0))
            for metric, count in nnz[op].items():
                row[metric] = max(row.get(metric, 0), count)
        return metrics, breakdown

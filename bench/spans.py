"""Per-layer tracing of ``heisminimal`` from outside the package.

``Tracer.install`` replaces the public functions of every module, and a
few public methods, with wrappers that record one span per call: name,
start, end and the index of the enclosing span.  A name that another
module bound with ``from .x import y`` is replaced there too, so calls
made through it are seen.  Jet arithmetic is counted, not spanned.

Spans live in flat arrays until ``save`` writes them out; ``per_pass``
turns them into the per-layer metrics of BENCHMARK.json.  A span's self
time is its duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

MODULES = ("heis", "dual", "expr", "quadrature", "geom", "graph", "ruled",
           "plateau", "flow", "svg", "cli")

# public methods that carry a per-layer metric
METHODS = {
    "plateau.jets": ("plateau", "ClosedCurve", "jets"),
    "ruled.invert": ("ruled", "RuledLiftPatch", "invert"),
    "ruled.lift_jet": ("ruled", "RuledLiftPatch", "jet"),
    "graph.side2_predicate": ("graph", "InterfaceCurve", "side2_predicate"),
}

JET_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
           "reciprocal", "compose", "sin", "cos", "tan", "exp", "log",
           "sqrt", "atan", "absval", "sgnval")

# (metric, unit, better); how each is computed is in ``_metric``
PER_LAYER = (
    ("plateau.phi_continue.calls", "count", "lower"),
    ("plateau.phi_continue.self_s", "s", "lower"),
    ("plateau.access_partials.calls", "count", "lower"),
    ("plateau.access_partials.points", "count", "lower"),
    ("plateau.access_set.calls", "count", "lower"),
    ("plateau.access_set.self_s", "s", "lower"),
    ("plateau.jets.calls", "count", "lower"),
    ("plateau.jets.points", "count", "lower"),
    ("plateau.jets.self_s", "s", "lower"),
    ("plateau.access_matrix.self_s", "s", "lower"),
    ("expr.evaluate.calls", "count", "lower"),
    ("expr.evaluate.self_s", "s", "lower"),
    ("dual.jet1.ops", "count", "lower"),
    ("dual.jet2.ops", "count", "lower"),
    ("graph.gauss_grid.calls", "count", "lower"),
    ("graph.gauss_grid.points", "count", "lower"),
    ("graph.gauss_grid.self_s", "s", "lower"),
    ("graph.characteristic_scan.self_s", "s", "lower"),
    ("graph.curvature_field.self_s", "s", "lower"),
    ("graph.variation.calls", "count", "lower"),
    ("graph.bump_battery.requested", "count", "lower"),
    ("graph.bump_battery.admitted", "count", "higher"),
    ("graph.bump_battery.admitted_share", "ratio", "higher"),
    ("graph.side2_predicate.points", "count", "lower"),
    ("graph.side2_predicate.self_s", "s", "lower"),
    ("graph.glue_check.self_s", "s", "lower"),
    ("quadrature.integrate_rect.calls", "count", "lower"),
    ("quadrature.integrate_rect.nodes", "count", "lower"),
    ("quadrature.integrate_rect.self_s", "s", "lower"),
    ("quadrature.integrate_two_sided.calls", "count", "lower"),
    ("quadrature.integrate_two_sided.self_s", "s", "lower"),
    ("ruled.invert.calls", "count", "lower"),
    ("ruled.invert.points", "count", "lower"),
    ("ruled.invert.converged", "count", "higher"),
    ("ruled.invert.converged_share", "ratio", "higher"),
    ("ruled.invert.self_s", "s", "lower"),
    ("ruled.lift_jet.calls", "count", "lower"),
    ("ruled.char_locus.self_s", "s", "lower"),
    ("ruled.rule_crossing_scan.self_s", "s", "lower"),
    ("ruled.export_mesh.self_s", "s", "lower"),
    ("flow.picard.calls", "count", "lower"),
    ("flow.picard.iterations", "count", "lower"),
    ("flow.picard.self_s", "s", "lower"),
    ("flow.mollify.self_s", "s", "lower"),
    ("svg.render.calls", "count", "lower"),
    ("svg.render.bytes", "bytes", "lower"),
    ("svg.render.self_s", "s", "lower"),
    ("geom.segment_crossings.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
)


def _size(x, y):
    return int(np.broadcast(np.asarray(x), np.asarray(y)).size)


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# extra counters recorded when a spanned call returns
def _on_access_partials(c, a, k, r):
    c["plateau.access_partials.points"] += _size(a[1], a[2])


def _on_jets(c, a, k, r):
    c["plateau.jets.points"] += int(np.size(a[1]))


def _on_gauss_grid(c, a, k, r):
    c["graph.gauss_grid.points"] += _size(a[1], a[2])


def _on_bump_battery(c, a, k, r):
    c["graph.bump_battery.requested"] += int(_arg(a, k, 1, "count", 20))
    c["graph.bump_battery.admitted"] += len(r)


def _on_integrate_rect(c, a, k, r):
    n = int(_arg(a, k, 2, "n", 0))
    c["quadrature.integrate_rect.nodes"] += n * n


def _on_invert(c, a, k, r):
    c["ruled.invert.points"] += _size(a[1], a[2])
    c["ruled.invert.converged"] += int(np.count_nonzero(r[2]))


def _on_picard(c, a, k, r):
    c["flow.picard.iterations"] += int(r.n_iterations)


def _on_render(c, a, k, r):
    c["svg.render.bytes"] += len(r.encode())


ON_RETURN = {
    "plateau.access_partials": _on_access_partials,
    "plateau.jets": _on_jets,
    "graph.gauss_grid": _on_gauss_grid,
    "graph.bump_battery": _on_bump_battery,
    "quadrature.integrate_rect": _on_integrate_rect,
    "ruled.invert": _on_invert,
    "flow.picard": _on_picard,
    "svg.render": _on_render,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._marks: list[tuple[int, Counter]] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, *, outermost=False):
        nid = self._id(name)
        on_return = ON_RETURN.get(name)
        if name == "graph.side2_predicate":
            return self._spanned_predicate(fn)

        def wrapper(*args, **kwargs):
            if outermost and self.stack and \
                    self.name_id[self.stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned_predicate(self, method):
        """The predicate is a closure the method returns; span its calls."""
        tracer = self

        def side2_predicate(*args, **kwargs):
            predicate = method(*args, **kwargs)

            def traced(x, y):
                idx = tracer.open("graph.side2_predicate")
                try:
                    return predicate(x, y)
                finally:
                    tracer.close(idx)
                    tracer.counts["graph.side2_predicate.points"] += \
                        _size(x, y)

            return traced

        side2_predicate.__wrapped__ = method
        return side2_predicate

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        mods = {m: sys.modules[f"heisminimal.{m}"] for m in MODULES}
        replaced = {}
        for m, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if m == "dual":
                    key = "dual.jet1.ops" if name.endswith("1") else \
                        "dual.jet2.ops"
                    replaced[obj] = self.counted(key, obj)
                else:
                    replaced[obj] = self.spanned(
                        f"{m}.{name}", obj,
                        outermost=(m, name) == ("expr", "evaluate"))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        for span_name, (m, cls_name, meth) in METHODS.items():
            cls = getattr(mods[m], cls_name)
            setattr(cls, meth, self.spanned(span_name, vars(cls)[meth]))
        for cls_name, key in (("Jet1", "dual.jet1.ops"),
                              ("Jet2", "dual.jet2.ops")):
            cls = getattr(mods["dual"], cls_name)
            for op in JET_OPS:
                fn = vars(cls).get(op)
                if inspect.isfunction(fn):
                    setattr(cls, op, self.counted(key, fn))

    # -- passes and metrics --------------------------------------------

    def mark(self):
        """Close one traced pass."""
        self._marks.append((len(self.start), Counter(self.counts)))

    def _pass_metrics(self, lo, hi, counts):
        ids = np.frombuffer(self.name_id, dtype=np.uint16)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        has_parent = parent >= lo
        child = np.bincount(parent[has_parent] - lo,
                            weights=dur[has_parent], minlength=hi - lo)
        n = len(self.names)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        calls = np.bincount(ids, minlength=n)
        by_name = {name: (int(calls[i]), float(self_s[i]))
                   for i, name in enumerate(self.names)}
        out = {}
        for metric, _, _ in PER_LAYER:
            out[metric] = _metric(metric, by_name, counts)
        return out

    def per_pass(self):
        """Per-layer metrics of every traced pass, in order."""
        passes = []
        lo, before = 0, Counter()
        for hi, after in self._marks:
            counts = Counter(after)
            counts.subtract(before)
            passes.append(self._pass_metrics(lo, hi, counts))
            lo, before = hi, after
        return passes

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            pass_end=np.asarray([m[0] for m in self._marks]))


def _metric(metric, by_name, counts):
    if metric in counts:
        return counts[metric]
    layer, _, stat = metric.rpartition(".")
    if stat == "calls":
        return by_name.get(layer, (0, 0.0))[0]
    if stat == "self_s":
        return by_name.get(layer, (0, 0.0))[1]
    if metric == "graph.bump_battery.admitted_share":
        asked = counts["graph.bump_battery.requested"]
        return counts["graph.bump_battery.admitted"] / asked if asked else 0.0
    if metric == "ruled.invert.converged_share":
        pts = counts["ruled.invert.points"]
        return counts["ruled.invert.converged"] / pts if pts else 0.0
    if stat in ("ops", "points", "nodes", "requested", "admitted",
                "converged", "iterations", "bytes", "artifact_bytes"):
        return 0
    raise KeyError(metric)

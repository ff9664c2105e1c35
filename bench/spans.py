"""Span recording around onedisk's public functions, for the traced run.

``Tracer.install`` replaces each named function with a timing wrapper in
every ``onedisk`` module namespace that binds it (and on the class, for
methods), so calls between onedisk modules are recorded too.  Spans are
kept in memory as (name, start, end, parent) and written out at the end.
Recording is on only while ``enabled`` is set, which the benchmark sets
around its timed operations, so set-up and checking leave no spans.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
import time
from collections import defaultdict

# (module, qualified name) of every function the per-layer metrics cover.
LAYERS = (
    ("graph", "new_bipartite"),
    ("drawing", "build_drawing"),
    ("drawing", "rotation_faces"),
    ("drawing", "trace_faces"),
    ("drawing", "verification_failure"),
    ("drawing", "find_one_disk_face"),
    ("drawing", "FaceWalk.canonical"),
    ("construct", "maximal_outerplanar"),
    ("construct", "insert_b3"),
    ("construct", "DrawingBuilder.derive_rotation"),
    ("construct", "DrawingBuilder.finish"),
    ("construct", "construct_extremal"),
    ("construct", "double"),
    ("bounds", "check"),
    ("documents", "drawing_to_document"),
    ("documents", "save_drawing"),
    ("documents", "save_graph"),
    ("documents", "drawing_from_document"),
    ("documents", "load_drawing"),
    ("documents", "load_graph"),
    ("search", "max_edges_one_disk"),
    ("search", "is_one_disk_drawable"),
    ("svg", "export_svg"),
    ("cli", "main"),
)

SEARCH_ROOTS = ("search.max_edges_one_disk", "search.is_one_disk_drawable")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever an onedisk module binds it."""
        homes = {m: importlib.import_module(f"onedisk.{m}") for m, _ in LAYERS}
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "onedisk" or k.startswith("onedisk."))]
        for module_name, qualname in LAYERS:
            home = homes[module_name]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def extend(self, spans) -> None:
        """Append the spans (names, starts, ends, parents) another process recorded."""
        names, start, end, parent = spans
        offset = len(self.names)
        self.names += names
        self.start += start
        self.end += end
        self.parent += [q + offset if q >= 0 else -1 for q in parent]

    @staticmethod
    def span_cost(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds that recording one span adds to a call, measured on a no-op."""

        def noop():
            return None

        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            probe = Tracer()
            probe.enabled = True
            wrapped = probe._wrap("noop", noop)
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    def layer_totals(self, first: int) -> dict:
        """Per-function calls and self seconds, plus search counters, for spans[first:].

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in a single thread, so children are
        disjoint and lie inside their parent.
        """
        last = len(self.names)
        child = [0.0] * (last - first)
        under_search = [False] * (last - first)
        under_max = [False] * (last - first)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        top_self = 0.0
        classes = witnesses = 0
        max_s = 0.0
        for i in range(last - 1, first - 1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur
        for i in range(first, last):
            j = i - first
            name = self.names[i]
            dur = self.end[i] - self.start[i]
            own = dur - child[j]
            calls[name] += 1
            self_s[name] += own
            top_self += own
            p = self.parent[i]
            if p >= first:
                under_search[j] = under_search[p - first]
                under_max[j] = under_max[p - first]
            if name == "search.max_edges_one_disk":
                if not under_max[j]:
                    max_s += dur
                under_max[j] = True
            if name == "graph.new_bipartite" and under_max[j]:
                classes += 1
            if name == "drawing.build_drawing" and under_search[j]:
                witnesses += 1
            if name in SEARCH_ROOTS:
                under_search[j] = True
        out: dict[str, float] = {}
        for module_name, qualname in LAYERS:
            name = f"{module_name}.{qualname}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["search.classes"] = classes
        out["search.classes_per_s"] = classes / max_s if max_s > 0 else 0.0
        out["search.witnesses"] = witnesses
        out["trace.top_self_s"] = top_self
        out["trace.spans"] = last - first
        return out

    def write(self, path) -> None:
        """Spans as gzip TSV: index, name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")

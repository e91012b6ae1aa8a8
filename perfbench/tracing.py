"""Spans around the public functions of each `updown` module.

`install` replaces every public function of the six layer modules, in each
module namespace that holds it, with a wrapper that records a span: name,
parent span, start and end.  Modules bind each other's functions by name
(`invariant` imports `solve_colorings`, `cocycle` calls `is_shiftable`
through its globals), so replacing the name everywhere it is bound makes
calls between layers nest as child spans.  Spans stay in flat arrays until
the run ends; `summarize` then derives calls, total and self time per name.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter, defaultdict

# The public functions of each layer module.  A name a later version drops
# is skipped, and its metrics read zero.
LAYERS = {
    "diagram": ("parse", "serialize", "semi_arcs", "component_shift", "connected_sum",
                "reverse_orientation"),
    "coloring": ("solve_colorings", "count_colorings", "is_colorable", "maxord",
                 "verify_coloring", "shift_coloring"),
    "cocycle": ("cocycle_violation", "check_cocycle", "is_shiftable",
                "check_shiftable_system", "enumerate_shiftable", "builtin_table",
                "parse_table", "format_table"),
    "invariant": ("crossing_weight", "weight_sum", "phi_multiset", "phi_shift",
                  "rii_bound_maxord", "rii_bound_nonself", "rii_necessity_colcount",
                  "rii_necessity_phi", "rii_report"),
    "moves": ("enumerate_moves", "apply_move", "random_walk"),
    "cli": ("main",),
}
CONSTRUCT = "diagram.construct"  # Diagram.__post_init__, the validation of every new Diagram


def _count_walk(counts, args, result):
    counts["moves.random_walk.steps"] += len(result)
    counts["moves.random_walk.stalls"] += sum(1 for mv, _ in result if mv is None)


def _count_descriptors(counts, args, result):
    counts["moves.enumerate_moves.descriptors"] += len(result)


def _count_colorings(counts, args, result):
    counts["coloring.solve_colorings.colorings"] += len(result)


def _count_sites(counts, args, result):
    counts["invariant.phi_multiset.sites"] += len(result.elements) * args[0].num_crossings


def _count_accepted(counts, args, result):
    counts["cocycle.enumerate_shiftable.accepted"] += len(result)


# Counts read off a call's arguments and result at the layer boundary.
HOOKS = {
    "moves.random_walk": _count_walk,
    "moves.enumerate_moves": _count_descriptors,
    "coloring.solve_colorings": _count_colorings,
    "invariant.phi_multiset": _count_sites,
    "cocycle.enumerate_shiftable": _count_accepted,
}


class Tracer:
    """In-memory span recorder.  Span i has name id names[i], parent span
    parents[i] (-1 for a root) and start/end times in seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        # wrappers record only while an operation runs, not during input
        # generation or output checks
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        tracer, counts = self, self.counts

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def roots(self) -> list[int]:
        """The root span (one per operation) of every span."""
        out = []
        for i, p in enumerate(self.parent):
            out.append(i if p < 0 else out[p])
        return out

    def write(self, path: str):
        """Spans as tab-separated rows: span, operation root, parent, name,
        start and duration in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        rows = ["span\top\tparent\tname\tstart_us\tdur_us"]
        for i, (r, nid, p, s, e) in enumerate(zip(self.roots(), self.name, self.parent,
                                                   self.start, self.end)):
            rows.append(f"{i}\t{r}\t{p}\t{self.names[nid]}\t{(s - t0) * 1e6:.1f}"
                        f"\t{(e - s) * 1e6:.1f}")
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")


def install(tracer: Tracer, package) -> list:
    """Wrap every layer function wherever it is bound; returns the undo list
    for `uninstall`."""
    homes = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    modules = [package, *homes.values()]
    undo = []
    for layer, names in LAYERS.items():
        home = homes[layer]
        for name in names:
            original = getattr(home, name, None)
            if original is None:
                continue
            span = f"{layer}.{name}"
            wrapped = tracer.wrap(span, original, HOOKS.get(span))
            for mod in modules:
                if getattr(mod, name, None) is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapped)
    diagram_cls = homes["diagram"].Diagram
    original = diagram_cls.__post_init__
    undo.append((diagram_cls, "__post_init__", original))
    diagram_cls.__post_init__ = tracer.wrap(CONSTRUCT, original)
    return undo


def uninstall(undo):
    for target, name, original in reversed(undo):
        setattr(target, name, original)


def summarize(tracer: Tracer, nested=()) -> dict:
    """Per span name: calls, total_s and self_s, where self time is the
    span's duration minus the durations of its direct children (children
    of a synchronous call never overlap).

    For each (outer, inner) pair in `nested`, also counts the `inner` spans
    that have an `outer` span among their ancestors, as
    stats[inner]["within:" + outer].
    """
    n = len(tracer.name)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    stats: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i in range(n):
        entry = stats[tracer.names[tracer.name[i]]]
        entry["calls"] += 1
        entry["total_s"] += dur[i]
        entry["self_s"] += dur[i] - child[i]
    for outer, inner in nested:
        outer_id, inner_id = tracer._ids.get(outer), tracer._ids.get(inner)
        inside = [False] * n
        hits = 0
        for i, p in enumerate(tracer.parent):
            inside[i] = p >= 0 and (inside[p] or tracer.name[p] == outer_id)
            if inside[i] and tracer.name[i] == inner_id:
                hits += 1
        stats[inner]["within:" + outer] = hits
    return stats

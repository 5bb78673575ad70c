"""Spans around the public functions of each twdecomp layer, from outside the
program.

The package binds functions with ``from .x import f``, so one function is
reachable from several module namespaces. ``Tracer.install`` replaces every
such reference in every loaded ``twdecomp`` module with one wrapper, and
``Tracer.unwrapped_references`` proves that none was missed. Spans are kept
in memory; ``layer_metrics`` turns one pass's spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# Layer (package module) -> public functions traced in it. A name the module
# no longer defines is skipped, and its metrics read 0.
TRACED = {
    "graph": ("make_clique", "induced_subgraph", "connected_components"),
    "flow": ("min_vertex_separator", "approx_3way_vertex_cut"),
    "separators": ("try_split", "two_thirds_vtx_sep", "two_way_half_vtx_sep",
                   "alpha_sum_sep"),
    "triangulate": ("decompose", "triang_2way_23", "triang_2way_half",
                    "triang_3way", "triang_generic", "min_degree_triang",
                    "assemble_tree_decomposition"),
    "validate": ("is_chordal", "clique_number_chordal", "check_tree_decomposition"),
    "io": ("emit_decomposition", "parse_decomposition"),
}
SEARCHES = ("two_thirds_vtx_sep", "two_way_half_vtx_sep", "alpha_sum_sep")
CANDIDATES = ("try_split", "approx_3way_vertex_cut")


def _flow_note(exceeded_type):
    def note(result, args, kwargs):
        bound = args[2] if len(args) > 2 else kwargs["bound"]
        return (result.augmentations, isinstance(result, exceeded_type), bound)
    return note


# Counts read from return values, recorded with the span.
_NOTES = {
    "make_clique": lambda r, a, kw: len(r[1]),
    "induced_subgraph": lambda r, a, kw: r.graph.n,
    "try_split": lambda r, a, kw: r is not None,
    "two_thirds_vtx_sep": lambda r, a, kw: r is None,
    "two_way_half_vtx_sep": lambda r, a, kw: r is None,
    "alpha_sum_sep": lambda r, a, kw: r is None,
    "emit_decomposition": lambda r, a, kw: len(r),
}


def package_modules(package: str = "twdecomp") -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Records (function, start ns, end ns, parent span, job, note) spans."""

    def __init__(self):
        self.names: list[str] = []      # function index -> name
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}

    def install(self, package: str = "twdecomp") -> None:
        mods = {m.__name__.rpartition(".")[2]: m for m in package_modules(package)}
        wrappers = {}
        for layer, names in TRACED.items():
            mod = mods.get(layer)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None or id(fn) in wrappers:
                    continue
                note = _NOTES.get(name)
                if name == "min_vertex_separator":
                    note = _flow_note(mod.Exceeded)
                wrappers[id(fn)] = self._wrap(fn, len(self.names), note)
                self._originals[id(fn)] = fn
                self.names.append(name)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is self._originals[id(value)]:
                    setattr(mod, attr, wrappers[id(value)])

    def unwrapped_references(self, package: str = "twdecomp") -> list[str]:
        """Module attributes that still hold a traced function unwrapped."""
        return [f"{mod.__name__}.{attr}"
                for mod in package_modules(package)
                for attr, value in vars(mod).items()
                if self._originals.get(id(value)) is value]

    def _wrap(self, fn, fid: int, note):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (fid, t0, t1, parent, tracer.job, None)
            if note is not None:
                spans[sid] = (fid, t0, t1, parent, tracer.job, note(result, args, kwargs))
            return result

        return wrapper

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(names: list[str], spans: list) -> dict[str, float]:
    """Per-layer counts and times (seconds) of one pass's spans."""
    layer_of = {}
    for layer, fns in TRACED.items():
        for fn in fns:
            layer_of[fn] = layer
    child_ns = [0] * len(spans)
    for fid, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    cnt: dict[str, int] = {}
    dur: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    layer_self: dict[str, int] = {}
    augs = exceeded = 0
    over = None
    fills = induced = emitted = rejects = hits = candidates = 0
    for i, (fid, t0, t1, parent, _, note) in enumerate(spans):
        name = names[fid]
        d = t1 - t0
        cnt[name] = cnt.get(name, 0) + 1
        dur[name] = dur.get(name, 0) + d
        self_ns[name] = self_ns.get(name, 0) + d - child_ns[i]
        layer = layer_of[name]
        layer_self[layer] = layer_self.get(layer, 0) + d - child_ns[i]
        if name == "min_vertex_separator":
            a, ex, bound = note
            augs += a
            exceeded += ex
            over = a - bound if over is None else max(over, a - bound)
        elif name == "make_clique":
            fills += note
        elif name == "induced_subgraph":
            induced += note
        elif name == "emit_decomposition":
            emitted += note
        elif name in SEARCHES:
            rejects += note
        elif name == "try_split":
            hits += note
        if name in CANDIDATES and parent >= 0 and names[spans[parent][0]] in SEARCHES:
            candidates += 1

    def c(*fns):
        return sum(cnt.get(f, 0) for f in fns)

    def s(table, *fns):
        return sum(table.get(f, 0) for f in fns) / 1e9

    flow_calls = c("min_vertex_separator")
    searches = c(*SEARCHES)
    splits = c("try_split")
    return {
        "flow.calls": flow_calls,
        "flow.self_s": s(self_ns, "min_vertex_separator"),
        "flow.augmentations": augs,
        "flow.augs_per_call": augs / flow_calls if flow_calls else 0,
        "flow.exceeded_ratio": exceeded / flow_calls if flow_calls else 0,
        "flow.max_augs_over_bound": over if over is not None else 0,
        "flow.3way_calls": c("approx_3way_vertex_cut"),
        "flow.3way_self_s": s(self_ns, "approx_3way_vertex_cut"),
        "separators.searches": searches,
        "separators.search_rejects": rejects,
        "separators.candidates": candidates,
        "separators.candidates_per_search": candidates / searches if searches else 0,
        "separators.split_hit_ratio": hits / splits if splits else 0,
        "separators.self_s": layer_self.get("separators", 0) / 1e9,
        "graph.clique_calls": c("make_clique"),
        "graph.clique_fill_edges": fills,
        "graph.clique_s": s(dur, "make_clique"),
        "graph.induced_calls": c("induced_subgraph"),
        "graph.induced_vertices": induced,
        "graph.induced_s": s(dur, "induced_subgraph"),
        "graph.components_s": s(dur, "connected_components"),
        "triangulate.self_s": layer_self.get("triangulate", 0) / 1e9,
        "triangulate.mindeg_s": s(dur, "min_degree_triang"),
        "triangulate.assemble_s": s(dur, "assemble_tree_decomposition"),
        "validate.chordal_calls": c("is_chordal"),
        "validate.chordal_s": s(dur, "is_chordal"),
        "validate.clique_number_s": s(dur, "clique_number_chordal"),
        "validate.check_td_s": s(dur, "check_tree_decomposition"),
        "io.emit_s": s(dur, "emit_decomposition"),
        "io.parse_s": s(dur, "parse_decomposition"),
        "io.td_bytes": emitted,
        "trace.spans": len(spans),
    }

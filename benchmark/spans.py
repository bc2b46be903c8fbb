"""Spans around the calls into atsep's layers, recorded from outside the program.

``Tracer.install`` replaces every binding of every public function of the
layers ``fileformat``, ``graph``, ``pipeline`` and ``planar`` in atsep's
modules with a wrapper that records a span (name, start, end, parent,
call). It also wraps the ``Graph.m``, ``Graph.total_weight`` and
``Graph.csr`` members, ``CompressedGraph.simple_graph``, and the
networkx functions ``check_planarity`` and ``triangulate_embedding`` as
``planar`` calls them. ``uninstall`` puts every original back. A name
that a later version of atsep no longer has is skipped, so its metrics
read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter_ns

LAYERS = ("fileformat", "graph", "pipeline", "planar")

MEMBERS = (
    ("graph", "Graph", "m"),
    ("graph", "Graph", "total_weight"),
    ("graph", "Graph", "csr"),
    ("pipeline", "CompressedGraph", "simple_graph"),
)

# counts read off a span's return value
COUNTS = {
    "pipeline.extra_edges": {"edges": len},
    "pipeline.steiner_subtree": {"vertices": lambda t1: len(t1.vertices())},
    "pipeline.branch_vertices": {"size": len},
    "pipeline.decompose_paths": {"paths": len},
    "pipeline.build_compressed_graph": {
        "nodes": lambda c: c.num_nodes,
        "edges": lambda c: len(c.edges),
    },
    "planar.lt_separator": {
        "size": lambda s: len(s.vertices),
        "fallback_steps": lambda s: s.fallback_steps,
        "cycle_used": lambda s: int(s.cycle_info is not None),
    },
    "pipeline.lift_separator": {"size": lambda res: len(res[0])},
    "pipeline.heavy_vertex_fixup": {"repairs": lambda s: s.repairs},
}

# "<span>.<stat>" where stat counts the spans of this name below the span
DESCENDANTS = {
    "verify_calls": "graph.verify_separator",
    "components_calls": "graph.connected_components",
}


class _ModuleProxy:
    """A module with some attributes replaced; everything else passes through."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index, call, counts]
        self.spans: list[list] = []
        self.call = -1  # the benchmark's call number; -1 while parsing
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counters = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.call, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counters:
                span[5] = {key: get(result) for key, get in counters.items()}
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "atsep" or key.startswith("atsep.")]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.split(".")
                if len(owner) != 2 or owner[0] != "atsep" or owner[1] not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{owner[1]}.{obj.__name__}", obj)
                self._set(module, attr, wrappers[obj])
        for layer, cls_name, attr in MEMBERS:
            cls = getattr(sys.modules.get(f"atsep.{layer}"), cls_name, None)
            member = cls.__dict__.get(attr) if cls is not None else None
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(member, property):
                self._set(cls, attr, property(self.wrap(name, member.fget)))
            elif isinstance(member, types.FunctionType):
                self._set(cls, attr, self.wrap(name, member))
        planar = sys.modules.get("atsep.planar")
        nx = getattr(planar, "nx", None)
        if nx is not None and hasattr(nx, "check_planarity"):
            check = self.wrap("planar.nx_check_planarity", nx.check_planarity)
            self._set(planar, "nx", _ModuleProxy(nx, check_planarity=check))
        if hasattr(planar, "triangulate_embedding"):
            self._set(planar, "triangulate_embedding",
                      self.wrap("planar.triangulate_embedding", planar.triangulate_embedding))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def counts_of(self, name: str, call: int) -> list[dict]:
        return [s[5] or {} for s in self.spans if s[0] == name and s[4] == call]

    def metrics(self) -> dict[str, float]:
        """Per span name: calls, s, self_s, summed counts, descendant calls."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, _call, counts) in enumerate(spans):
            add(f"{name}.calls", 1)
            add(f"{name}.s", (end - start) / 1e9)
            add(f"{name}.self_s", (end - start - child_ns[i]) / 1e9)
            for key, value in (counts or {}).items():
                add(f"{name}.{key}", value)
            seen = set()
            while parent >= 0:
                ancestor = spans[parent][0]
                for stat, target in DESCENDANTS.items():
                    if name == target and (ancestor, stat) not in seen:
                        seen.add((ancestor, stat))
                        add(f"{ancestor}.{stat}", 1)
                parent = spans[parent][3]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, call, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "call": call, "counts": counts}) + "\n")

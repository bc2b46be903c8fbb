#!/usr/bin/env python3
"""Live and peak memory of each stage of one ``separate`` call.

Runs ``atsep.separate`` once to warm up, then once more under
``tracemalloc`` with the pipeline's stage functions wrapped, and prints
one row per stage call: the MB live when the stage starts, the peak MB
while it runs and the MB live when it returns. All three count from the
start of the call, so the graph itself is not counted, as in the
benchmark's ``peak_mem_mb``. A last ``separate`` row gives the whole
call. A stage called from inside another stage (``tree_centroid`` in a
repair) counts toward the outer one. The graph is generated from a
``GenSpec`` or read from an edge-list file. Examples::

    python3 scripts/stage_memory.py --n 200000 --r 16 --seed 1
    python3 scripts/stage_memory.py graph.txt --beta 3/4
"""

from __future__ import annotations

import argparse
import functools
import gc
import tracemalloc
from fractions import Fraction

import atsep.pipeline
from atsep.fileformat import load_graph
from atsep.gen import GenSpec, generate

# separate's stages, in the order a graph with cycles runs them; a tree
# runs compute_spanning_tree, tree_centroid and heavy_vertex_fixup
STAGES = (
    "compute_spanning_tree", "extra_edges", "steiner_subtree", "branch_vertices",
    "decompose_paths", "collapse_weights", "build_compressed_graph",
    "CompressedGraph.simple_graph", "lt_separator", "lift_separator",
    "tree_centroid", "heavy_vertex_fixup",
)

MB = 1e6


def measure(G, beta) -> list[tuple[str, float, float, float]]:
    """(stage, live before, peak in, live after) in MB, one per stage call,
    then the same for the whole call."""
    rows: list[tuple[str, float, float, float]] = []
    depth = 0
    overall = 0

    def wrap(name, fn):
        @functools.wraps(fn)
        def stage(*args, **kwargs):
            nonlocal depth, overall
            if depth:
                return fn(*args, **kwargs)
            live, peak = tracemalloc.get_traced_memory()
            overall = max(overall, peak)  # the caller's own work since the last stage
            tracemalloc.reset_peak()
            depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
                after, peak = tracemalloc.get_traced_memory()
                overall = max(overall, peak)
                rows.append((name, live / MB, peak / MB, after / MB))
                tracemalloc.reset_peak()

        return stage

    undo = []
    for name in STAGES:
        owner, _, attr = name.rpartition(".")
        target = getattr(atsep.pipeline, owner) if owner else atsep.pipeline
        undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrap(name, getattr(target, attr)))
    try:
        gc.collect()
        tracemalloc.start()
        try:
            atsep.pipeline.separate(G, beta=beta)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
    rows.append(("separate", 0.0, max(overall, peak) / MB, after / MB))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", nargs="?", help="edge-list file; else a generated graph")
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--r", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--beta", type=Fraction, default=Fraction(2, 3))
    args = parser.parse_args(argv)
    if args.file:
        G = load_graph(args.file)
    else:
        G = generate(GenSpec(n=args.n, r=args.r, seed=args.seed))
    atsep.pipeline.separate(G, beta=args.beta)  # warm-up: imports and first-call costs
    print(f"{'stage':<30}{'live_before_mb':>16}{'peak_mb':>10}{'live_after_mb':>15}")
    for name, live, peak, after in measure(G, args.beta):
        print(f"{name:<30}{live:>16.2f}{peak:>10.2f}{after:>15.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

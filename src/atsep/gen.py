"""Seeded generators for connected planar near-tree graphs and weights.

All randomness comes from numpy's PCG64 via ``SeedSequence(seed,
spawn_key=(stage,))`` so that every artifact is a pure function of its
GenSpec; the per-stage streams are: 0 = tree shape, 1 = extra edges,
2 = weights.

Extra edges are placed by rejection sampling: candidates are drawn (a
mixture of uniform pairs and short random-walk pairs) and accepted one
at a time iff the graph stays simple and planar. The planarity test runs
on a compressed core (the union of tree paths spanned by the chord
endpoints, with degree-2 interiors suppressed), which is planar exactly
when the full graph is: hanging trees and path subdivisions never affect
planarity. The check itself is further limited to the biconnected block
receiving the new chord, which is also exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

import numpy as np

from .errors import Infeasible
from .graph import Graph, _bfs_layers, build_graph, graph_from_edges
from .planar import _lr_test

_STAGE_TREE = 0
_STAGE_EDGES = 1
_STAGE_WEIGHTS = 2


def _rng(seed: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stage,)))


@dataclass
class GenSpec:
    """Parameters of one generated instance; m = n + r."""

    n: int
    r: int
    seed: int
    weight_mode: tuple = ("unit",)

    def __post_init__(self):
        if self.n < 1:
            raise Infeasible(f"n must be >= 1, got {self.n}")
        if self.r < -1:
            raise Infeasible(f"r must be >= -1, got {self.r}")
        kind = self.weight_mode[0]
        if kind not in ("unit", "uniform", "single_heavy"):
            raise Infeasible(f"unknown weight mode {kind!r}")
        if kind == "uniform":
            lo, hi = int(self.weight_mode[1]), int(self.weight_mode[2])
            # weights are non-negative and not all zero
            if not (0 <= lo <= hi and hi >= 1):
                raise Infeasible(f"uniform weights need 0 <= LO <= HI and HI >= 1, got {lo}:{hi}")
        if kind == "single_heavy":
            f = Fraction(self.weight_mode[1]).limit_denominator(10**6)
            if not Fraction(1, 2) < f < 1:
                raise Infeasible("single_heavy fraction must be in (1/2, 1)")


def random_tree(n: int, seed: int) -> Graph:
    """Random-attachment labeled tree with randomly permuted vertex IDs."""
    if n == 1:
        return build_graph(1, [])
    return graph_from_edges(n, *_tree_edges(n, seed), [1] * n)


def _tree_edges(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(child, parent) arrays of ``random_tree``'s edges, in build order."""
    rng = _rng(seed, _STAGE_TREE)
    # vertex i (in build order) attaches to a uniform earlier vertex
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    perm = rng.permutation(n)
    return perm[1:], perm[parents]


def grid_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise Infeasible("grid sides must be >= 1")
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            if j + 1 < b:
                edges.append((v, v + 1))
            if i + 1 < a:
                edges.append((v, v + b))
    return build_graph(a * b, edges)


class _CompressedCore:
    """Compressed union of tree paths touched by accepted chords.

    Nodes are chord endpoints and branch points; each compressed edge
    stands for a tree path with its interior vertices suppressed. The
    underlying simple graph (core edges + chords) is planar iff the full
    tree-plus-chords graph is.
    """

    def __init__(self, parent: list[int], root: int):
        self.parent = parent
        self.in_core = bytearray(len(parent))
        self.in_core[root] = 1
        self.nodes = {root}
        self.owner: dict[int, int] = {}          # interior vertex -> edge id
        self.edge_ends: dict[int, tuple[int, int]] = {}
        self.edge_interior: dict[int, list[int]] = {}
        self.chords: list[tuple[int, int]] = []
        self.next_eid = 0

    def snapshot(self):
        return (
            bytes(self.in_core),
            set(self.nodes),
            dict(self.owner),
            dict(self.edge_ends),
            dict(self.edge_interior),
            list(self.chords),
            self.next_eid,
        )

    def restore(self, snap):
        in_core, nodes, owner, ends, interior, chords, eid = snap
        self.in_core = bytearray(in_core)
        self.nodes = set(nodes)
        self.owner = dict(owner)
        self.edge_ends = dict(ends)
        self.edge_interior = dict(interior)
        self.chords = list(chords)
        self.next_eid = eid

    def _new_edge(self, a: int, b: int, interior: list[int]) -> None:
        eid = self.next_eid
        self.next_eid += 1
        self.edge_ends[eid] = (a, b)
        self.edge_interior[eid] = interior
        for x in interior:
            self.owner[x] = eid

    def _split_at(self, x: int) -> None:
        eid = self.owner.pop(x)
        a, b = self.edge_ends.pop(eid)
        interior = self.edge_interior.pop(eid)
        i = interior.index(x)
        self._new_edge(a, x, interior[:i])
        self._new_edge(x, b, interior[i + 1:])
        self.nodes.add(x)

    def attach(self, x: int) -> None:
        """Make x a core node, extending the core along tree ancestors."""
        if x in self.nodes:
            return
        if self.in_core[x]:
            self._split_at(x)
            return
        walk = [x]
        y = self.parent[x]
        while not self.in_core[y]:
            walk.append(y)
            y = self.parent[y]
        if y not in self.nodes:
            self._split_at(y)
        for v in walk:
            self.in_core[v] = 1
        self.nodes.add(x)
        self._new_edge(x, y, walk[1:])

    def add_chord(self, u: int, v: int) -> None:
        self.attach(u)
        self.attach(v)
        self.chords.append((u, v))

    def adjacency_with(self) -> dict[int, list[int]]:
        """Simple-graph adjacency of core edges plus chords."""
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for a, b in self.edge_ends.values():
            adj[a].add(b)
            adj[b].add(a)
        for a, b in self.chords:
            adj[a].add(b)
            adj[b].add(a)
        return {v: list(s) for v, s in adj.items()}

    def chord_block_planar(self, s: int, t: int) -> bool:
        """Planarity check limited to the biconnected block holding (s, t).

        Adding an edge can only break planarity inside the block that
        contains it; the other blocks were planar before and are
        untouched, so checking the one block is exact.
        """
        block = _edge_block(self.adjacency_with(), s, t)
        if len(block) <= 2:
            return True
        nodes, ends = np.unique(block, return_inverse=True)
        adj: list[list[int]] = [[] for _ in nodes]
        for a, b in ends.reshape(-1, 2).tolist():
            adj[a].append(b)
            adj[b].append(a)
        return _lr_test(adj) is not None


def _edge_block(adj: dict[int, list[int]], s: int, t: int) -> list[tuple[int, int]]:
    """Edges of the biconnected component containing edge (s, t).

    Iterative Hopcroft-Tarjan over a connected adjacency dict.
    """
    target = (s, t) if s < t else (t, s)
    disc: dict[int, int] = {s: 0}
    low: dict[int, int] = {s: 0}
    counter = 1
    edge_stack: list[tuple[int, int]] = []
    frames: list[tuple[int, int | None, object]] = [(s, None, iter(adj[s]))]
    while frames:
        v, parent_v, it = frames[-1]
        advanced = False
        for w in it:
            if w == parent_v:
                continue
            if w not in disc:
                edge_stack.append((v, w))
                disc[w] = low[w] = counter
                counter += 1
                frames.append((w, v, iter(adj[w])))
                advanced = True
                break
            if disc[w] < disc[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if advanced:
            continue
        frames.pop()
        if not frames:
            break
        u = frames[-1][0]
        if low[v] < low[u]:
            low[u] = low[v]
        if low[v] >= disc[u]:
            comp = []
            while edge_stack:
                e = edge_stack.pop()
                comp.append(e)
                if e == (u, v):
                    break
            for a, b in comp:
                if ((a, b) if a < b else (b, a)) == target:
                    return comp
    return []


def near_tree_planar(spec: GenSpec) -> Graph:
    """Random tree plus r+1 extra edges, kept simple and planar throughout."""
    n, r = spec.n, spec.r
    if r < 0:
        raise Infeasible("near_tree_planar needs r >= 0")
    if n < 3 or n + r > 3 * n - 6:
        raise Infeasible(f"no simple planar graph with n={n}, m={n + r}")
    child, up = _tree_edges(n, spec.seed)
    tree = graph_from_edges(n, child, up, [1] * n)
    row_at, nbr = memoryview(tree.indptr), memoryview(tree.indices)

    # parent pointers and depths from vertex 0; a tree has only one of each
    parent = np.empty(n, dtype=np.int64)
    depth = np.empty(n, dtype=np.int64)
    for d, layer in enumerate(_bfs_layers(tree, 0, parent)):
        depth[layer] = d
    parent, depth = parent.tolist(), depth.tolist()

    core = _CompressedCore(parent, 0)
    rng = _rng(spec.seed, _STAGE_EDGES)
    target = r + 1
    max_attempts = 200 * target
    attempts = 0
    used: set[tuple[int, int]] = set()  # accepted chords only
    dead: set[tuple[int, int]] = set()

    def draw() -> tuple[int, int] | None:
        # Candidates are a mixture of uniform pairs and short-random-walk
        # pairs. Pure uniform pairs get rejected at a rate growing with
        # the number of placed edges (two random attachment points rarely
        # share a face of the growing core), which cannot reach large r
        # within the attempt budget; local pairs keep acceptance high
        # while the uniform share preserves long chords in the mix.
        nonlocal attempts
        while attempts < max_attempts:
            attempts += 1
            u = int(rng.integers(n))
            if rng.random() < 0.15:
                v = int(rng.integers(n))
            else:
                steps = 2 + int(rng.exponential(3.0))
                v, prev = u, -1
                for _ in range(steps):
                    nbrs = nbr[row_at[v]:row_at[v + 1]]
                    choices = [x for x in nbrs if x != prev] or nbrs
                    nxt = choices[int(rng.integers(len(choices)))]
                    prev, v = v, nxt
            if u == v or parent[u] == v or parent[v] == u:
                continue
            key = (u, v) if u < v else (v, u)
            if key in used or key in dead:
                continue
            return key
        return None

    def path_core_hits(u: int, v: int) -> int:
        """Number of core vertices on the tree path u..v (inclusive)."""
        hits = 0
        a, b = u, v
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            hits += core.in_core[a]
            a = parent[a]
        return hits + core.in_core[a]

    while len(core.chords) < target:
        cand = draw()
        if cand is None:
            raise Infeasible(
                f"could not place {target} planar extra edges within "
                f"{max_attempts} attempts (n={n}, r={r}, seed={spec.seed})"
            )
        u, v = cand
        # A chord whose tree path meets the core in at most one vertex
        # forms its own biconnected block, so planarity is automatic and
        # the full test can be skipped.
        if path_core_hits(u, v) <= 1:
            core.add_chord(u, v)
            used.add(cand)
            continue
        snap = core.snapshot()
        core.add_chord(u, v)
        if core.chord_block_planar(u, v):
            used.add(cand)
        else:
            core.restore(snap)
            dead.add(cand)

    # tree edges first, then the chords: each vertex keeps its tree
    # neighbours ahead of its chord neighbours
    chords = np.array(core.chords, dtype=np.int64).reshape(-1, 2)
    G = graph_from_edges(
        n,
        np.concatenate((child, chords[:, 0])),
        np.concatenate((up, chords[:, 1])),
        [1] * n,
    )
    return assign_weights(G, spec.weight_mode, spec.seed)


def assign_weights(G: Graph, mode: tuple, seed: int) -> Graph:
    """New Graph with weights drawn per mode; topology is shared."""
    rng = _rng(seed, _STAGE_WEIGHTS)
    kind = mode[0]
    if kind == "unit":
        weights = [1] * G.n
    elif kind == "uniform":
        lo, hi = int(mode[1]), int(mode[2])
        weights = rng.integers(lo, hi + 1, size=G.n).tolist()
    elif kind == "single_heavy":
        f = Fraction(mode[1]).limit_denominator(10**6)
        weights = list(G.weights)
        z = int(rng.integers(G.n))
        w_rest = sum(weights) - weights[z]
        # smallest integer weight strictly above f/(1-f) of the rest
        weights[z] = floor(Fraction(w_rest) * f / (1 - f)) + 1
    else:
        raise Infeasible(f"unknown weight mode {kind!r}")
    return Graph(n=G.n, indptr=G.indptr, indices=G.indices, weights=weights)


def generate(spec: GenSpec) -> Graph:
    """Dispatch on excess: r = -1 gives a tree, r >= 0 a near-tree."""
    if spec.r == -1:
        return assign_weights(random_tree(spec.n, spec.seed), spec.weight_mode, spec.seed)
    return near_tree_planar(spec)

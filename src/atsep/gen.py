"""Seeded generators for connected planar near-tree graphs and weights.

All randomness comes from numpy's PCG64 via ``SeedSequence(seed,
spawn_key=(stage,))`` so that every artifact is a pure function of its
GenSpec; the per-stage streams are: 0 = tree shape, 1 = extra edges,
2 = weights.

Extra edges are placed by rejection sampling: candidates are drawn (a
mixture of uniform pairs and short random-walk pairs) and accepted one
at a time iff the graph stays simple and planar. The planarity test runs
on the core (the union of the tree paths from the root to the chord
endpoints) plus the chords, which is planar exactly when the full graph
is, because hanging trees never affect planarity. The left-right test
(``planar._lr_test``) runs on that graph's planarity kernel
(``planar._planarity_kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from .errors import Infeasible
from .graph import Graph, _bfs_layers, _unique, build_graph, graph_from_edges
from .planar import _lr_test, _planarity_kernel

_STAGE_TREE = 0
_STAGE_EDGES = 1
_STAGE_WEIGHTS = 2


def _rng(seed: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stage,)))


# each weight mode's tuple length, its name included
_WEIGHT_MODE_SIZES = {"unit": 1, "uniform": 3, "single_heavy": 2}


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
        mode = self.weight_mode
        kind = mode[0] if mode else None
        if kind not in _WEIGHT_MODE_SIZES:
            raise Infeasible(f"unknown weight mode {kind!r}")
        if len(mode) != _WEIGHT_MODE_SIZES[kind]:
            raise Infeasible(f"weight mode {kind!r} takes {_WEIGHT_MODE_SIZES[kind] - 1} "
                             f"parameter(s), got {len(mode) - 1}")
        try:
            if kind == "uniform":
                lo, hi = int(mode[1]), int(mode[2])
                # weights are non-negative and not all zero
                if not (0 <= lo <= hi and hi >= 1):
                    raise Infeasible(f"uniform weights need 0 <= LO <= HI and HI >= 1, got {lo}:{hi}")
            if kind == "single_heavy":
                f = Fraction(mode[1]).limit_denominator(10**6)
                if not Fraction(1, 2) < f < 1:
                    raise Infeasible("single_heavy fraction must be in (1/2, 1)")
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise Infeasible(f"bad {kind} weight parameters {mode[1:]!r}: {exc}") from exc


def random_tree(n: int, seed: int) -> Graph:
    """Random-attachment labeled tree with randomly permuted vertex IDs."""
    if n < 1:
        raise Infeasible(f"a tree needs n >= 1, got {n}")
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


def _chords_planar(parent: np.ndarray, members: list[int], ends: list[int]) -> bool:
    """Whether a tree plus chords is planar, decided on a subtree.

    ``parent`` is the tree's parent array, with the root its own parent.
    ``members`` lists the vertices of a subtree that holds the root and
    every chord end; ``ends`` lists the chords' ends in pairs. The rest of
    the tree hangs off the subtree, and a hanging tree never changes
    planarity, so the left-right test runs on the kernel of the subtree's
    edges plus the chords.
    """
    nodes = _unique(np.array(members, dtype=np.int64))
    child = nodes[parent[nodes] != nodes]
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    # a vertex's node is its position in ``nodes``
    a = np.searchsorted(nodes, np.concatenate((child, pairs[:, 0])))
    b = np.searchsorted(nodes, np.concatenate((parent[child], pairs[:, 1])))
    G = graph_from_edges(len(nodes), a, b, [1] * len(nodes))
    kernel = _planarity_kernel(G)
    index = {x: i for i, x in enumerate(kernel)}
    return _lr_test([[index[y] for y in nbrs] for nbrs in kernel.values()]) is not None


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
    parent_array = np.empty(n, dtype=np.int64)
    depth = np.empty(n, dtype=np.int64)
    for d, layer in enumerate(_bfs_layers(tree, 0, parent_array)):
        depth[layer] = d
    parent, depth = parent_array.tolist(), depth.tolist()

    # the core: the union of the tree paths from the root to the accepted
    # chords' ends, as a mask and as a list
    core = bytearray(n)
    core[0] = 1
    members = [0]
    ends: list[int] = []  # accepted chords' ends, in pairs
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
            hits += core[a]
            a = parent[a]
        return hits + core[a]

    def walk(x: int) -> list[int]:
        """x and its ancestors outside the core, bottom-up."""
        out = []
        while not core[x]:
            out.append(x)
            x = parent[x]
        return out

    while len(used) < target:
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
        if path_core_hits(u, v) > 1 and not _chords_planar(
            parent_array, members + walk(u) + walk(v), ends + [u, v]
        ):
            dead.add(cand)
            continue
        for x in (u, v):
            new = walk(x)
            members += new
            for y in new:
                core[y] = 1
        ends += cand
        used.add(cand)

    # tree edges first, then the chords: each vertex keeps its tree
    # neighbours ahead of its chord neighbours
    chords = np.array(ends, dtype=np.int64).reshape(-1, 2)
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

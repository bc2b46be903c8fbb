"""Separator pipeline for planar graphs that are almost trees.

Given a connected planar graph with n vertices and n+r edges, reduce it
to a compressed planar graph of size O(r): take a BFS spanning tree, the
r+1 non-tree edges, the minimal subtree spanning their endpoints, and
contract that subtree's bare paths into weighted subdivision nodes.
Separate the compressed graph with the Lipton-Tarjan module, lift the
result back, and repair the rare imbalance introduced by lifting. The
final separator always verifies at the requested balance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import ceil, sqrt
from time import perf_counter_ns

import numpy as np

from .errors import (
    BadVertexId,
    Disconnected,
    EmptyTerminals,
    EmptyTree,
    NotPlanar,
    RepairCapExceeded,
    ZeroTotalWeight,
)
from .fileformat import format_graph
from .graph import (
    EdgeSet,
    Graph,
    SpanningTree,
    check_beta,
    heaviest_component,
    verify_separator,
)
from .planar import lt_separator


# frontiers below this size step through plain Python; larger ones vectorize
_VEC_MIN_FRONTIER = 128


def _frontier_neighbors(indptr, indices, frontier):
    """All neighbors of the frontier (with repetition), plus per-vertex counts."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return indices[:0], counts
    cum = np.cumsum(counts)
    pos = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    return indices[np.repeat(starts, counts) + pos], counts


def compute_spanning_tree(G: Graph, root: int = 0) -> SpanningTree:
    """BFS spanning tree; raises Disconnected if some vertex is unreachable.

    Levels are visited in ascending vertex-ID order; within a level, the
    parent of a newly found vertex is its first discoverer. Big frontiers
    run as vectorized level steps over the CSR adjacency. The tree keeps
    the visit order and the offsets of the levels in it.
    """
    parent = np.full(G.n, -1, dtype=np.int64)
    parent[root] = root
    adjacency = G.adjacency
    indptr = indices = None
    frontier = [root]
    order = [root]
    levels = [0, 1]
    while frontier:
        if len(frontier) < _VEC_MIN_FRONTIER:
            new = []
            for u in frontier:
                for v in adjacency[u]:
                    if parent[v] == -1:
                        parent[v] = u
                        new.append(v)
            new.sort()
            frontier = new
        else:
            if indptr is None:
                indptr, indices = G.csr()
            fr = np.asarray(frontier, dtype=np.int64)
            nbrs, counts = _frontier_neighbors(indptr, indices, fr)
            src = np.repeat(fr, counts)
            undisc = parent[nbrs] == -1
            nb, sr = nbrs[undisc], src[undisc]
            uniq, first = np.unique(nb, return_index=True)
            parent[uniq] = sr[first]
            frontier = uniq.tolist()
        order.extend(frontier)
        levels.append(len(order))
    levels.pop()  # the empty frontier that ended the walk
    if len(order) != G.n:
        raise Disconnected(f"only {len(order)} of {G.n} vertices reachable from {root}")
    return SpanningTree(root=root, parent=parent, order=order, levels=levels)


def extra_edges(G: Graph, T: SpanningTree) -> EdgeSet:
    """Non-tree edges R = E(G) \\ E(T); |R| = m - n + 1."""
    if G.n < _VEC_MIN_FRONTIER:
        return EdgeSet(edges=[(u, v) for u, v in G.edges() if not T.is_tree_edge(u, v)])
    indptr, indices = G.csr()
    src = np.repeat(np.arange(G.n, dtype=np.int64), np.diff(indptr))
    once = src < indices
    u, v = src[once], indices[once]
    parent = np.asarray(T.parent, dtype=np.int64)
    nontree = ~((parent[u] == v) | (parent[v] == u))
    return EdgeSet(edges=list(zip(u[nontree].tolist(), v[nontree].tolist())))


@dataclass
class SteinerSubtree:
    """Minimal subtree of the spanning tree containing all terminals.

    ``member`` marks the subtree's vertices, ``top`` is its vertex nearest
    the root, ``degrees`` holds each member's degree inside the subtree
    (0 outside it) and ``parent`` is the spanning tree's parent array.
    """

    member: np.ndarray
    top: int
    degrees: np.ndarray
    parent: np.ndarray

    def vertices(self) -> list[int]:
        return np.flatnonzero(self.member).tolist()

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def edges(self) -> list[tuple[int, int]]:
        """Subtree edges as sorted (u, v) pairs with u < v."""
        child = np.flatnonzero(self.member)
        child = child[child != self.top]
        up = self.parent[child]
        lo, hi = np.minimum(child, up), np.maximum(child, up)
        order = np.lexsort((hi, lo))
        return list(zip(lo[order].tolist(), hi[order].tolist()))


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array.

    Plain np.unique imports numpy.ma on its first call (40-130 ms), which
    a process that separates one small graph would pay in full.
    """
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def steiner_subtree(T: SpanningTree, terminals) -> SteinerSubtree:
    """Minimal subtree of T containing all terminals.

    Marks the union of the terminals' root paths by walking up from the
    terminals in batches of 1, 2, 4, ... levels: a batch marks every vertex
    its walks pass, then the walks whose next vertex is marked stop and the
    others merge. Walking past a merge point is harmless, because every
    ancestor of a marked vertex belongs to the union. The union's leaves
    are terminals, so the vertices to drop are its root chain: the marked
    vertices above ``top``, the shallowest marked vertex that is a
    terminal or has two marked children. Pointer jumping over the marked
    vertices gives their depths. Needs only T.root and T.parent.

    Cost, with D the BFS depth of the deepest terminal: a few arrays of
    length n, O(log D) numpy passes over the marked vertices, and one
    small gather per level walked (at most 2D), which is what a deep tree
    with a narrow union (a long cycle or path) pays for.
    """
    terms = _unique(np.fromiter(terminals, dtype=np.int64))
    if terms.size == 0:
        raise EmptyTerminals("steiner subtree needs at least one terminal")
    parent = np.asarray(T.parent, dtype=np.int64)
    n, root = len(parent), T.root
    member = np.zeros(n, dtype=bool)
    frontier = terms
    batch = 1
    while frontier.size:
        walk = [frontier]
        for _ in range(batch - 1):
            frontier = parent[frontier]
            walk.append(frontier)
        member[np.concatenate(walk)] = True
        up = parent[frontier]
        frontier = _unique(up[~member[up]])
        batch *= 2
    verts = np.flatnonzero(member)
    child = verts[verts != root]
    children = np.bincount(parent[child], minlength=n)
    # depth of each marked vertex: after k rounds, up jumps 2^k levels
    # (stopping at the root) and depth holds min(2^k, depth)
    index = np.empty(n, dtype=np.int64)
    index[verts] = np.arange(verts.size)
    up = index[parent[verts]]
    at_root = index[root]
    depth = (verts != root).astype(np.int64)
    while (up != at_root).any():
        depth += depth[up]
        up = up[up]
    top_like = member & (children != 1)
    top_like[terms] = True
    candidates = np.flatnonzero(top_like[verts])
    i = candidates[np.argmin(depth[candidates])]
    top = int(verts[i])
    chain = verts[depth < depth[i]]
    member[chain] = False
    children[chain] = 0
    degrees = children  # marked children; every member but top adds its parent
    degrees[member] += 1
    degrees[top] -= 1
    return SteinerSubtree(member=member, top=top, degrees=degrees, parent=parent)


@dataclass
class BranchSet:
    """Terminals plus every subtree vertex of degree three or more."""

    members: set[int]

    def __len__(self) -> int:
        return len(self.members)


def branch_vertices(T1: SteinerSubtree, terminals) -> BranchSet:
    mask = T1.degrees >= 3
    mask[np.fromiter(terminals, dtype=np.int64)] = True
    return BranchSet(members=set(np.flatnonzero(mask).tolist()))


@dataclass
class PathDecomposition:
    """Maximal branch-to-branch paths with branch-free interiors."""

    paths: list[list[int]]

    def __len__(self) -> int:
        return len(self.paths)


def decompose_paths(T1: SteinerSubtree, U: BranchSet) -> PathDecomposition:
    """Edge-disjoint cover of the subtree by maximal U-to-U paths.

    Every subtree vertex outside U other than ``top`` has exactly one
    subtree child, so each path is the upward chain from a branch vertex
    b != top; a ``top`` outside U joins the two chains that meet at it.
    Pointer doubling over the one-child pointers gives each interior
    vertex its chain's bottom and its distance from it; one sort groups
    the chains. Paths run from their smaller endpoint and come in order
    of (that endpoint, its neighbour on the path).
    """
    parent, member, top = T1.parent, T1.member, T1.top
    n = len(member)
    branch = np.zeros(n, dtype=bool)
    branch[np.fromiter(U.members, dtype=np.int64, count=len(U.members))] = True
    inner = member & ~branch
    inner[top] = False
    child = np.flatnonzero(member)
    child = child[child != top]
    up = parent[child]
    ptr = np.arange(n, dtype=np.int64)  # non-interior vertices point at themselves
    below = inner[up]
    ptr[up[below]] = child[below]
    dist = inner.astype(np.int64)
    interior = np.flatnonzero(inner)
    active = interior
    while active.size:
        nxt = ptr[active]
        dist[active] += dist[nxt]
        ptr[active] = ptr[nxt]
        active = active[inner[ptr[active]]]
    bottom = ptr[interior]
    interior = interior[np.lexsort((dist[interior], bottom))]
    starts = np.flatnonzero(branch & member)
    starts = starts[starts != top]
    counts = np.bincount(bottom, minlength=n)[starts]
    ends = np.cumsum(counts)
    last = starts.copy()  # each chain's highest vertex
    last[counts > 0] = interior[ends[counts > 0] - 1]
    flat = interior.tolist()
    join_at_top = not branch[top]
    paths = []
    joined = []
    lo = 0
    for b, hi, end in zip(starts.tolist(), ends.tolist(), parent[last].tolist()):
        path = [b, *flat[lo:hi], end]
        lo = hi
        if join_at_top and end == top:
            joined.append(path)
        else:
            paths.append(path)
    if joined:
        a, b = joined
        paths.append(a + b[-2::-1])
    for path in paths:
        if path[0] > path[-1]:
            path.reverse()
    paths.sort(key=lambda p: (p[0], p[1]))
    return PathDecomposition(paths=paths)


@dataclass
class CollapsedWeights:
    """Weights after every outside vertex donates to its nearest subtree vertex."""

    wprime: list[int]
    attach: list[int]


def collapse_weights(G: Graph, T: SpanningTree, T1: SteinerSubtree) -> CollapsedWeights:
    """Each vertex donates its weight to its nearest subtree vertex in T.

    T1 is connected, so that vertex is unique: the first T1 vertex on the
    vertex's root path, or T1's top vertex if the path misses T1 (every
    path from the vertex into T1 then enters through the top). One
    top-down pass over T's BFS levels finds it: a vertex outside T1 takes
    its parent's attachment. Weight conservation is exact.
    """
    parent = T1.parent
    order = np.asarray(T.order, dtype=np.int64)
    member = T1.member
    attach = np.empty(G.n, dtype=np.int64)
    attach[T.root] = T.root if member[T.root] else T1.top
    inside = member[order]
    up = parent[order]
    for lo, hi in zip(T.levels[1:], T.levels[2:]):
        attach[order[lo:hi]] = np.where(inside[lo:hi], order[lo:hi], attach[up[lo:hi]])
    wprime = np.zeros(G.n, dtype=np.int64)
    np.add.at(wprime, attach, G.weight_array())
    return CollapsedWeights(wprime=wprime.tolist(), attach=attach.tolist())


@dataclass
class CompressedGraph:
    """Branch nodes plus one weighted subdivision node per path.

    Node IDs: 0..|U|-1 are branch nodes (``orig`` maps them to original
    vertex IDs), the rest are subdivision nodes. ``back_map`` keeps each
    path's interior order together with prefix sums of the collapsed
    weights, for lifting and repairs.
    """

    node_weights: list[int]
    edges: list[tuple[int, int]]
    orig: list[int | None]
    back_map: dict[int, tuple[list[int], list[int]]]
    path_ends: dict[int, tuple[int, int]]
    has_parallel: bool = False

    @property
    def num_nodes(self) -> int:
        return len(self.node_weights)

    def simple_graph(self) -> Graph:
        """Parallel edges collapsed; vertex separators are unaffected.

        Each node's neighbours come in ascending order.
        """
        n = self.num_nodes
        keys = _unique(_edge_keys(self.edges, n))
        lo, hi = np.divmod(keys, n)
        lo, hi = lo[lo != hi], hi[lo != hi]
        src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        order = np.lexsort((dst, src))
        ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
        dst = dst[order].tolist()
        adjacency = [dst[a:b] for a, b in zip([0, *ends[:-1]], ends)]
        return Graph(n=n, adjacency=adjacency, weights=list(self.node_weights))


def _edge_keys(edges, n):
    """One integer per undirected edge: min * n + max."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pairs.min(axis=1) * n + pairs.max(axis=1)


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def build_compressed_graph(
    U: BranchSet, Pi: PathDecomposition, R: EdgeSet, cw: CollapsedWeights
) -> CompressedGraph:
    u_list = sorted(U.members)
    node_of = {u: i for i, u in enumerate(u_list)}
    wprime = cw.wprime
    node_weights = [wprime[u] for u in u_list]
    orig: list[int | None] = list(u_list)
    edges: list[tuple[int, int]] = []
    back_map: dict[int, tuple[list[int], list[int]]] = {}
    path_ends: dict[int, tuple[int, int]] = {}
    for path in Pi.paths:
        interior = path[1:-1]
        sub = len(node_weights)
        prefix = list(accumulate(map(wprime.__getitem__, interior)))
        node_weights.append(prefix[-1] if prefix else 0)
        orig.append(None)
        back_map[sub] = (interior, prefix)
        path_ends[sub] = (path[0], path[-1])
        edges.append((node_of[path[0]], sub))
        edges.append((sub, node_of[path[-1]]))
    for u, v in R.edges:
        edges.append((node_of[u], node_of[v]))
    keys = np.sort(_edge_keys(edges, len(node_weights)))
    return CompressedGraph(
        node_weights=node_weights,
        edges=edges,
        orig=orig,
        back_map=back_map,
        path_ends=path_ends,
        has_parallel=bool((keys[1:] == keys[:-1]).any()),
    )


@dataclass
class PathFragment:
    """Leftover piece of a path interior after its cut vertex was lifted."""

    vertices: list[int]
    wprime: list[int]


def _median_cut(vertices: list[int], weights: list[int]) -> int:
    """Vertex minimizing the heavier of the two remaining sides; ties -> lower ID."""
    total = sum(weights)
    best_v, best_cost = None, None
    left = 0
    for v, w in zip(vertices, weights):
        cost = max(left, total - left - w)
        if best_cost is None or cost < best_cost or (cost == best_cost and v < best_v):
            best_v, best_cost = v, cost
        left += w
    return best_v


def lift_separator(Sc, C: CompressedGraph):
    """Map a compressed separator back to original vertex IDs.

    Branch nodes lift to themselves. A selected subdivision node lifts to
    the weighted-median vertex of its path interior; interior-free paths
    lift to an endpoint not already covered. Returns the lifted set plus
    the leftover interior fragments (for the repair loop).
    """
    lifted: set[int] = set()
    fragments: list[PathFragment] = []
    subs = []
    for node in sorted(Sc):
        if C.orig[node] is not None:
            lifted.add(C.orig[node])
        else:
            subs.append(node)
    for node in subs:
        interior, prefix = C.back_map[node]
        if not interior:
            a, b = C.path_ends[node]
            for cand in sorted((a, b)):
                if cand not in lifted:
                    lifted.add(cand)
                    break
            continue
        weights = [prefix[0]] + [
            prefix[i] - prefix[i - 1] for i in range(1, len(prefix))
        ]
        cut = _median_cut(interior, weights)
        i = interior.index(cut)
        lifted.add(cut)
        if interior[:i]:
            fragments.append(PathFragment(interior[:i], weights[:i]))
        if interior[i + 1:]:
            fragments.append(PathFragment(interior[i + 1:], weights[i + 1:]))
    return lifted, fragments


def tree_centroid(vertices, adjacency, weights) -> int:
    """Vertex of a weighted tree whose removal leaves parts of weight <= W/2."""
    verts = sorted(vertices)
    if not verts:
        raise EmptyTree("centroid of an empty tree")
    root = verts[0]
    parent = {root: root}
    order = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v in adjacency[u]:
            if v not in parent:
                parent[v] = u
                stack.append(v)
    subtree = {v: weights[v] for v in order}
    for u in reversed(order):
        if u != root:
            subtree[parent[u]] += subtree[u]
    total = subtree[root]
    best_v, best_cost = None, None
    for v in verts:
        heaviest = total - subtree[v]
        for c in adjacency[v]:
            if c != parent[v]:
                heaviest = max(heaviest, subtree[c])
        if best_cost is None or heaviest < best_cost or (
            heaviest == best_cost and v < best_v
        ):
            best_v, best_cost = v, heaviest
    return best_v


@dataclass
class Separator:
    """Final separator with its balance statistics."""

    vertices: set[int]
    size: int
    max_component_weight: int
    total_weight: int
    repairs: int

    @property
    def max_fraction(self) -> float:
        if self.total_weight == 0:
            return 0.0
        return self.max_component_weight / self.total_weight


def heavy_vertex_fixup(
    G: Graph,
    S,
    beta=Fraction(2, 3),
    fragments: list[PathFragment] = (),
    cap: int | None = None,
) -> Separator:
    """Repair loop for the lifted separator; its last check is the verification.

    Each round computes the components of G - S and compares the heaviest
    exactly against beta * W. While it is too heavy: a tree component gets
    its weighted centroid added; otherwise the heaviest leftover path
    fragment inside the component is cut at its weighted median. The round
    that passes is the exact verification of the returned separator, so
    G - S is searched once when no repair fires. The loop is capped
    (default from G's excess r); the cap signals an algorithmic bug, it is
    never expected to fire.
    """
    S = set(S)
    for v in S:
        if not (0 <= v < G.n):
            raise BadVertexId(f"separator vertex {v} out of range")
    beta = Fraction(beta)
    W = G.total_weight
    if cap is None:
        cap = _repair_cap(G.excess)
    repairs = 0
    while True:
        heaviest, hw = heaviest_component(G, S)
        if hw * beta.denominator <= W * beta.numerator:
            break
        if repairs >= cap:
            raise RepairCapExceeded(
                f"still unbalanced after {repairs} repairs (cap {cap})"
            )
        hset = set(heaviest)
        inner_edges = sum(
            1 for u in heaviest for v in G.adjacency[u] if v in hset
        ) // 2
        if inner_edges == len(heaviest) - 1:
            adj = {
                u: [v for v in G.adjacency[u] if v in hset] for u in heaviest
            }
            S.add(tree_centroid(heaviest, adj, G.weights))
        else:
            runs: list[tuple[int, list[int], list[int]]] = []
            for frag in fragments:
                cur_v: list[int] = []
                cur_w: list[int] = []
                for v, w in zip(frag.vertices, frag.wprime):
                    if v in hset:
                        cur_v.append(v)
                        cur_w.append(w)
                    elif cur_v:
                        runs.append((sum(cur_w), cur_v, cur_w))
                        cur_v, cur_w = [], []
                if cur_v:
                    runs.append((sum(cur_w), cur_v, cur_w))
            if runs:
                _, verts, ws = max(runs, key=lambda t: (t[0], -t[1][0]))
                S.add(_median_cut(verts, ws))
            else:
                # no fragment reaches into the component: fall back to the
                # centroid of a BFS spanning tree of it
                adj = {u: [] for u in heaviest}
                start = min(heaviest)
                queue = deque([start])
                seen = {start}
                while queue:
                    u = queue.popleft()
                    for v in G.adjacency[u]:
                        if v in hset and v not in seen:
                            seen.add(v)
                            adj[u].append(v)
                            adj[v].append(u)
                            queue.append(v)
                S.add(tree_centroid(heaviest, adj, G.weights))
        repairs += 1
    return Separator(
        vertices=S,
        size=len(S),
        max_component_weight=hw,
        total_weight=W,
        repairs=repairs,
    )


def _repair_cap(r: int) -> int:
    """The size bound 4 sqrt(r + 1) + 2, rounded up."""
    return 2 + ceil(4 * sqrt(max(r, 0) + 1))


@dataclass
class TraceStage:
    name: str
    graph: Graph
    selected: list[int] = field(default_factory=list)


@dataclass
class StageTrace:
    stages: list[TraceStage]

    def names(self) -> list[str]:
        return [s.name for s in self.stages]


def format_trace(trace: StageTrace) -> str:
    out = []
    for stage in trace.stages:
        out.append(f"stage {stage.name}\n")
        out.append(format_graph(stage.graph))
        for v in sorted(stage.selected):
            out.append(f"s {v + 1}\n")
    return "".join(out)


def _subgraph_same_vertices(G: Graph, edges) -> Graph:
    return Graph(n=G.n, adjacency=_adjacency(G.n, list(edges)), weights=list(G.weights))


def separate(
    G: Graph,
    beta=Fraction(2, 3),
    root: int = 0,
    trace: bool = False,
    timings: dict[str, int] | None = None,
):
    """Full pipeline; returns a verified Separator (and a StageTrace if asked).

    Raises BadBeta unless 1/2 < beta < 1, and NotPlanar, with the input's
    vertex and edge counts, for a non-planar input.

    Pass a dict as ``timings`` to collect per-stage wall times in ns.
    """
    clock = perf_counter_ns if timings is not None else None

    def tick(name, t0):
        if timings is not None:
            timings[name] = perf_counter_ns() - t0
        return perf_counter_ns() if clock else 0

    beta = check_beta(beta)
    W = G.total_weight
    if W == 0:
        raise ZeroTotalWeight("all vertex weights are zero")
    t0 = perf_counter_ns() if clock else 0
    T = compute_spanning_tree(G, root=root)  # raises Disconnected
    t0 = tick("spanning_tree", t0)

    stages: list[TraceStage] = []
    if trace:
        stages.append(TraceStage("input", G))

    r = G.excess
    if r < 0:
        adj = {v: list(G.adjacency[v]) for v in range(G.n)}
        c = tree_centroid(range(G.n), adj, G.weights)
        report = verify_separator(G, {c}, beta)
        sep = Separator(
            vertices={c},
            size=1,
            max_component_weight=report.max_component_weight,
            total_weight=W,
            repairs=0,
        )
        if trace:
            stages.append(TraceStage("separator", G, sorted(sep.vertices)))
            return sep, StageTrace(stages)
        return sep

    R = extra_edges(G, T)
    t0 = tick("extra_edges", t0)
    terminals = R.endpoints()
    T1 = steiner_subtree(T, terminals)
    t0 = tick("steiner_subtree", t0)
    U = branch_vertices(T1, terminals)
    Pi = decompose_paths(T1, U)
    t0 = tick("decompose_paths", t0)
    cw = collapse_weights(G, T, T1)
    t0 = tick("collapse_weights", t0)
    C = build_compressed_graph(U, Pi, R, cw)
    Gc = C.simple_graph()
    t0 = tick("build_compressed", t0)
    try:
        lt = lt_separator(Gc, beta=beta)
    except NotPlanar:
        # the compressed graph is planar exactly when the input is
        raise NotPlanar(
            f"graph with {G.n} vertices and {G.n + r} edges is not planar"
        ) from None
    t0 = tick("lt_separator", t0)
    lifted, fragments = lift_separator(lt.vertices, C)
    sep = heavy_vertex_fixup(G, lifted, beta, fragments, cap=_repair_cap(r))
    tick("lift_and_repair", t0)

    if trace:
        stages.append(TraceStage("spanning_tree", _subgraph_same_vertices(G, T.tree_edges())))
        stages.append(TraceStage("extra_edges", _subgraph_same_vertices(G, R.edges)))
        stages.append(
            TraceStage("steiner_subtree", _subgraph_same_vertices(G, T1.edges()), T1.vertices())
        )
        stages.append(
            TraceStage("branch_set", _subgraph_same_vertices(G, T1.edges()), sorted(U.members))
        )
        stages.append(TraceStage("compressed", Gc))
        stages.append(TraceStage("compressed_separator", Gc, sorted(lt.vertices)))
        repair_added = sorted(sep.vertices - lifted)
        stages.append(TraceStage("repairs", G, repair_added))
        stages.append(TraceStage("separator", G, sorted(sep.vertices)))
        return sep, StageTrace(stages)
    return sep


def dump_stages(G: Graph, beta=Fraction(2, 3)) -> StageTrace:
    """Intermediate stages of the pipeline, one record per construction step."""
    _, trace = separate(G, beta=beta, trace=True)
    return trace

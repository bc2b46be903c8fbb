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
from itertools import accumulate, chain
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
    graph_from_edges,
    verify_separator,  # unused here; benchmark/test_benchmark.py reads this binding
)
from .planar import lt_separator


# frontiers below this size step through plain Python; larger ones vectorize
_VEC_MIN_FRONTIER = 128


def _frontier_neighbors(indptr, indices, frontier):
    """All neighbors of the frontier (with repetition), plus per-vertex counts."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    ends = np.cumsum(counts)
    # the k-th entry overall lies at starts[i] + k - (ends[i] - counts[i])
    at = np.repeat(starts - ends + counts, counts)
    at += np.arange(len(at), dtype=np.int64)
    return indices[at], counts


def compute_spanning_tree(G: Graph, root: int = 0) -> SpanningTree:
    """BFS spanning tree; raises Disconnected if some vertex is unreachable.

    Levels are visited in ascending vertex-ID order; within a level, the
    parent of a newly found vertex is its first discoverer, so each
    vertex's parent is its lowest-ID neighbour one level up. Small
    frontiers step through Python over CSR rows; big ones run as
    vectorized level steps. Raises BadVertexId for a root outside [0, n).
    """
    n = G.n
    if not 0 <= root < n:
        raise BadVertexId(f"root {root} out of range [0, {n})")
    indptr, indices = G.indptr, G.indices
    parent = np.full(n, -1, dtype=np.int64)
    seen = bytearray(n)  # 1 once found; the scalar steps index it directly
    seen[root] = 1
    mark = np.frombuffer(seen, dtype=np.uint8)  # the same bytes, for vector steps
    # memoryviews index and slice to Python ints faster than the arrays do
    row_at, nbr = memoryview(indptr), memoryview(indices)
    # Scalar steps keep their finds in lists and write them to the arrays
    # once at the end: a numpy write per small level costs more than the
    # level itself on a deep tree.
    kids, ups = [root], [root]
    frontier = [root]
    while len(frontier):
        if len(frontier) < _VEC_MIN_FRONTIER:
            frontier = frontier if isinstance(frontier, list) else frontier.tolist()
            while 0 < len(frontier) < _VEC_MIN_FRONTIER:
                new = []
                for u in frontier:
                    for v in nbr[row_at[u]:row_at[u + 1]]:
                        if not seen[v]:
                            seen[v] = 1
                            new.append(v)
                            ups.append(u)
                kids += new
                new.sort()
                frontier = new
        else:
            fr = np.asarray(frontier, dtype=np.int64)
            nbrs, counts = _frontier_neighbors(indptr, indices, fr)
            found = mark[nbrs] == 0
            frontier = _first_finders(parent, mark, nbrs[found], np.repeat(fr, counts)[found])
    reached = np.count_nonzero(mark)
    if reached != n:
        raise Disconnected(f"only {reached} of {n} vertices reachable from {root}")
    parent[kids] = ups
    return SpanningTree(root=root, parent=parent)


def _first_finders(parent, mark, nbrs, src):
    """Record each new vertex's first finder; return the new vertices, sorted.

    ``nbrs`` lists the level's finds in frontier order and ``src`` who
    found each; a vertex found twice keeps the earlier finder.
    """
    s = np.sort(nbrs)
    first = np.ones(s.size, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    new = s[first]
    parent[nbrs] = src  # for a vertex found twice, either finder may win here
    if new.size < s.size:
        mark[s[~first]] = 2
        pos = np.flatnonzero(mark[nbrs] == 2)  # every find of a repeated vertex
        rep = nbrs[pos]
        by_vertex = np.argsort(rep, kind="stable")
        rep, pos = rep[by_vertex], pos[by_vertex]
        keep = np.ones(rep.size, dtype=bool)
        keep[1:] = rep[1:] != rep[:-1]
        parent[rep[keep]] = src[pos[keep]]
    mark[new] = 1
    return new


def extra_edges(G: Graph, T: SpanningTree) -> EdgeSet:
    """Non-tree edges R = E(G) \\ E(T); |R| = m - n + 1.

    Edges come as (u, v) with u < v, ordered by u and then by v's place
    in u's neighbour list. Only the vertices whose degree in G exceeds
    their degree in T have non-tree edges, so only their rows are read.
    """
    parent = np.asarray(T.parent, dtype=np.int64)
    # parent[root] == root counts the root as its own child, standing in
    # for the parent edge it lacks
    tree_degree = np.bincount(parent, minlength=G.n) + 1
    tree_degree[T.root] -= 2
    ends = np.flatnonzero(np.diff(G.indptr) > tree_degree)
    nbrs, counts = _frontier_neighbors(G.indptr, G.indices, ends)
    src = np.repeat(ends, counts)
    keep = (src < nbrs) & (parent[src] != nbrs) & (parent[nbrs] != src)
    return EdgeSet(edges=list(zip(src[keep].tolist(), nbrs[keep].tolist())))


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
    """Weights after every outside vertex donates to its nearest subtree vertex.

    A vertex's entry is the nearest vertex on its root path, itself
    included, that is the root, a subtree vertex or a child of one;
    ``entries`` marks them. ``skip`` takes every other vertex to its entry
    and an entry to its parent, and ``nearest`` is worked out from it.
    Arrays are indexed by vertex; ``attach`` lists the nearest subtree
    vertices as Python ints.
    """

    wprime: np.ndarray
    skip: np.ndarray
    entries: np.ndarray
    T1: SteinerSubtree
    root: int

    @property
    def nearest(self) -> np.ndarray:
        ids = np.arange(len(self.skip), dtype=np.int64)
        return _attach(np.where(self.entries, ids, self.skip), self.T1, self.root)

    @property
    def attach(self) -> list[int]:
        return self.nearest.tolist()


def _attach(entry: np.ndarray, T1: SteinerSubtree, root: int) -> np.ndarray:
    """Each vertex's nearest subtree vertex, from its entry: the entry or
    its parent, and T1's top for the vertices whose root path misses T1."""
    attach = np.where(T1.member[entry], entry, T1.parent[entry])
    if not T1.member[root]:
        attach[attach == root] = T1.top
    return attach


def _nearest_marked(up: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Each vertex's nearest marked vertex on its root path, itself included.

    The root must be marked. ``up`` takes each vertex to a proper
    ancestor with no marked vertex strictly between, such as its parent.
    Marked vertices point at themselves and the others along ``up``;
    jumping every pointer to its target's pointer halves the distance
    left, so O(log D) numpy passes over all vertices suffice (D the depth
    of the tree; whole-array gathers beat tracking the vertices still
    moving).
    """
    ptr = np.where(mark, np.arange(len(up), dtype=np.int64), up)
    while not mark[ptr].all():
        ptr = ptr[ptr]
    return ptr


def collapse_weights(G: Graph, T: SpanningTree, T1: SteinerSubtree) -> CollapsedWeights:
    """Each vertex donates its weight to its nearest subtree vertex in T.

    T1 is connected, so that vertex is unique: the first T1 vertex on the
    vertex's root path, or T1's top vertex if the path misses T1 (every
    path from the vertex into T1 then enters through the top). One
    pointer jump to each vertex's entry finds it: the entry is that
    vertex, or its child, or the root. Weight conservation is exact.
    """
    # the children of T1 are marked too, for heavy_vertex_fixup: they hold
    # every piece head of a separator inside T1
    entries = T1.member | T1.member[T1.parent]
    entries[T.root] = True
    entry = _nearest_marked(T1.parent, entries)
    wprime = np.zeros(G.n, dtype=np.int64)
    np.add.at(wprime, _attach(entry, T1, T.root), G.weight_array)
    skip = np.where(entries, T1.parent, entry)
    return CollapsedWeights(wprime=wprime, skip=skip, entries=entries, T1=T1, root=T.root)


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

    @property
    def num_nodes(self) -> int:
        return len(self.node_weights)

    def simple_graph(self) -> Graph:
        """Parallel edges collapsed; vertex separators are unaffected.

        Each node's neighbours come in ascending order: with the edges
        sorted by (lower, higher) end, a node's lower neighbours come
        before its higher ones, each run ascending.
        """
        n = self.num_nodes
        pairs = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = np.divmod(_unique(pairs.min(axis=1) * n + pairs.max(axis=1)), n)
        return graph_from_edges(n, lo, hi, list(self.node_weights))


def build_compressed_graph(
    U: BranchSet, Pi: PathDecomposition, R: EdgeSet, cw: CollapsedWeights
) -> CompressedGraph:
    u_list = sorted(U.members)
    node_of = {u: i for i, u in enumerate(u_list)}
    interiors = [path[1:-1] for path in Pi.paths]
    flat = np.fromiter(chain.from_iterable(interiors), dtype=np.int64)
    interior_w = cw.wprime[flat].tolist()
    node_weights = cw.wprime[np.array(u_list, dtype=np.int64)].tolist()
    orig: list[int | None] = list(u_list)
    edges: list[tuple[int, int]] = []
    back_map: dict[int, tuple[list[int], list[int]]] = {}
    path_ends: dict[int, tuple[int, int]] = {}
    at = 0
    for path, interior in zip(Pi.paths, interiors):
        sub = len(node_weights)
        prefix = list(accumulate(interior_w[at:at + len(interior)]))
        at += len(interior)
        node_weights.append(prefix[-1] if prefix else 0)
        orig.append(None)
        back_map[sub] = (interior, prefix)
        path_ends[sub] = (path[0], path[-1])
        edges.append((node_of[path[0]], sub))
        edges.append((sub, node_of[path[-1]]))
    for u, v in R.edges:
        edges.append((node_of[u], node_of[v]))
    return CompressedGraph(
        node_weights=node_weights,
        edges=edges,
        orig=orig,
        back_map=back_map,
        path_ends=path_ends,
    )


@dataclass
class PathFragment:
    """Leftover piece of a path interior after its cut vertex was lifted."""

    vertices: list[int]
    wprime: list[int]


def _median_cut(vertices: list[int], weights: list[int]) -> int:
    """Position of the cut that leaves the lightest heavier side; ties -> lower ID."""
    total = sum(weights)
    best, best_v, best_cost = -1, None, None
    left = 0
    for i, (v, w) in enumerate(zip(vertices, weights)):
        cost = max(left, total - left - w)
        if best_cost is None or cost < best_cost or (cost == best_cost and v < best_v):
            best, best_v, best_cost = i, v, cost
        left += w
    return best


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
        i = _median_cut(interior, weights)
        lifted.add(interior[i])
        if interior[:i]:
            fragments.append(PathFragment(interior[:i], weights[:i]))
        if interior[i + 1:]:
            fragments.append(PathFragment(interior[i + 1:], weights[i + 1:]))
    return lifted, fragments


def tree_centroid(vertices, adjacency, weights) -> int:
    """Vertex of a weighted tree whose removal leaves parts of weight <= W/2.

    The walk is breadth first from the lowest vertex, each vertex hanging
    off the first neighbour that reaches it. On a connected graph with
    cycles, the result is the centroid of that BFS tree.
    """
    verts = sorted(vertices)
    if not verts:
        raise EmptyTree("centroid of an empty tree")
    root = verts[0]
    parent = {root: root}
    order = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in adjacency[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    subtree = {v: weights[v] for v in order}
    heaviest_child = dict.fromkeys(order, 0)
    for u in reversed(order):
        if u != root:
            p = parent[u]
            subtree[p] += subtree[u]
            if subtree[u] > heaviest_child[p]:
                heaviest_child[p] = subtree[u]
    total = subtree[root]
    best_v, best_cost = None, None
    for v in verts:
        heaviest = max(total - subtree[v], heaviest_child[v])
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
    # wall time per stage in ns, in pipeline order; ``separate`` fills it
    stage_ns: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    @property
    def max_fraction(self) -> float:
        if self.total_weight == 0:
            return 0.0
        return self.max_component_weight / self.total_weight


@dataclass
class _Heaviest:
    """Heaviest component of G - S: its weight, label and whether it is a tree."""

    weight: int
    label: int
    is_tree: bool
    head_of: np.ndarray
    labels: np.ndarray
    removed: np.ndarray

    def inside(self) -> np.ndarray:
        """Mask of its vertices."""
        return (self.labels[self.head_of] == self.label) & ~self.removed


class _TreePlusExtra:
    """G as its spanning tree T plus the non-tree edges R, for searching G - S.

    G - S is the pieces of T - S joined by the edges of R outside S. A
    piece is named by its head: the root, or a vertex whose parent is in
    S. ``_nearest_marked`` takes every vertex to its head, and a
    union-find over the at most r + 1 edges of R joins the pieces. A
    tree comes with an empty R.

    With ``cw``, while every head is an entry (S inside T1), each vertex
    jumps straight to its entry along ``cw.skip``, so the pointers meet
    few distinct targets, which keeps the jump's gathers in cache on
    large graphs.
    """

    def __init__(self, G: Graph, T: SpanningTree, R: EdgeSet,
                 cw: CollapsedWeights | None = None):
        if len(R) != G.m - G.n + 1:
            # R holds only non-tree edges, so with T's n - 1 edges it is
            # all of E(G) exactly when the counts add up
            raise ValueError(
                f"R has {len(R)} edges but G needs m - n + 1 = {G.m - G.n + 1}"
            )
        self.parent = np.asarray(T.parent, dtype=np.int64)
        self.root = T.root
        self.cw = cw
        ends = np.array(R.edges, dtype=np.int64).reshape(-1, 2)
        self.ru, self.rv = ends[:, 0], ends[:, 1]
        self.weights = G.weight_array

    def heaviest(self, removed: np.ndarray) -> _Heaviest:
        """The heaviest component of G - S, S given as a mask over the vertices."""
        parent = self.parent
        n = len(parent)
        head = removed | removed[parent]
        head[self.root] = True
        up = parent
        if self.cw is not None and not (head & ~self.cw.entries).any():
            up = self.cw.skip  # no head lies strictly between a vertex and its entry
        ptr = _nearest_marked(up, head)
        piece_w = np.zeros(n, dtype=np.int64)
        np.add.at(piece_w, ptr, self.weights)  # a vertex of S keeps its own weight
        heads = np.flatnonzero(head & ~removed)

        # union-find over the pieces that edges of R outside S join
        outside = ~(removed[self.ru] | removed[self.rv])
        link: dict[int, int] = {}
        cyclic: list[int] = []

        def find(x):
            while link.get(x, x) != x:
                x = link[x]
            return x

        for a, b in zip(ptr[self.ru[outside]].tolist(), ptr[self.rv[outside]].tolist()):
            a, b = find(a), find(b)
            if a == b:
                cyclic.append(a)
            else:
                link[max(a, b)] = min(a, b)
        # each piece's component, named by one of its heads
        label = np.arange(n, dtype=np.int64)
        if link:
            joined = np.fromiter(link, dtype=np.int64, count=len(link))
            label[joined] = [find(x) for x in joined.tolist()]
        if heads.size == 0:
            return _Heaviest(0, -1, False, ptr, label, removed)
        comp_w = np.zeros(n, dtype=np.int64)
        np.add.at(comp_w, label[heads], piece_w[heads])
        weight = comp_w.max()
        best = np.flatnonzero(comp_w == weight)
        if best.size > 1:
            # ties go to the component holding the lowest vertex
            tied = np.zeros(n, dtype=bool)
            tied[best] = True
            first = np.flatnonzero(tied[label[ptr]] & ~removed)[0]
            best = label[ptr[first]]
        else:
            best = best[0]
        acyclic = all(find(x) != best for x in cyclic)
        return _Heaviest(int(weight), int(best), acyclic, ptr, label, removed)


def heavy_vertex_fixup(
    G: Graph,
    T: SpanningTree,
    R: EdgeSet,
    S,
    beta=Fraction(2, 3),
    fragments: list[PathFragment] = (),
    cw: CollapsedWeights | None = None,
) -> Separator:
    """Repair loop for the lifted separator; its last check is the verification.

    T is a spanning tree of G and R its non-tree edges. Each round finds
    the components of G - S on T plus R and compares the heaviest
    exactly against beta * W. While it is too heavy: a tree component gets
    its weighted centroid added; otherwise the heaviest leftover path
    fragment inside the component is cut at its weighted median, or, if no
    fragment reaches into it, the centroid of its BFS tree is. The round
    that passes is the exact verification of the returned separator. The
    loop is capped at 4 sqrt(r + 1) + 2 repairs, r being G's excess; the
    cap signals an algorithmic bug, it is never expected to fire.
    ``cw``, the collapsed weights over T, only speeds up the search.
    """
    S = set(S)
    for v in S:
        if not (0 <= v < G.n):
            raise BadVertexId(f"separator vertex {v} out of range")
    beta = Fraction(beta)
    W = G.total_weight
    cap = 2 + ceil(4 * sqrt(max(G.excess, 0) + 1))
    graph = _TreePlusExtra(G, T, R, cw)
    removed = np.zeros(G.n, dtype=bool)
    removed[list(S)] = True
    repairs = 0
    while True:
        found = graph.heaviest(removed)
        hw = found.weight
        if hw * beta.denominator <= W * beta.numerator:
            break
        if repairs >= cap:
            raise RepairCapExceeded(
                f"still unbalanced after {repairs} repairs (cap {cap})"
            )
        inside = found.inside()
        members = np.flatnonzero(inside)
        heaviest = members.tolist()
        runs: list[tuple[int, list[int], list[int]]] = []
        if not found.is_tree:
            hset = set(heaviest)
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
            cut = verts[_median_cut(verts, ws)]
        else:
            # a tree, or no fragment reaches into the component: the
            # centroid of its BFS tree from the lowest vertex
            cut = tree_centroid(heaviest, _InducedRows(G, members, inside), G.weights)
        S.add(cut)
        removed[cut] = True
        repairs += 1
    return Separator(
        vertices=S,
        size=len(S),
        max_component_weight=hw,
        total_weight=W,
        repairs=repairs,
    )


class _InducedRows:
    """Neighbour lists of G inside a vertex set, read off one flat array.

    ``rows[u]`` gives the neighbours of member u that are members, in G's
    order. Slices of memoryviews keep no list per vertex alive: on a
    component of 10^6 vertices, a list each cost more in garbage
    collector passes than the repair itself.
    """

    def __init__(self, G: Graph, members: np.ndarray, inside: np.ndarray):
        nbrs, counts = _frontier_neighbors(G.indptr, G.indices, members)
        keep = inside[nbrs]
        ends = np.concatenate(([0], np.cumsum(keep)))[np.concatenate(([0], np.cumsum(counts)))]
        lo = np.zeros(G.n, dtype=np.int64)
        hi = np.zeros(G.n, dtype=np.int64)
        lo[members], hi[members] = ends[:-1], ends[1:]
        self._lo, self._hi = memoryview(lo), memoryview(hi)
        self._flat = memoryview(nbrs[keep])

    def __getitem__(self, u: int):
        return self._flat[self._lo[u]:self._hi[u]]


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
    ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return graph_from_edges(G.n, ends[:, 0], ends[:, 1], list(G.weights))


def separate(
    G: Graph,
    beta=Fraction(2, 3),
    root: int = 0,
    trace: bool = False,
):
    """Full pipeline; returns a verified Separator (and a StageTrace if asked).

    Raises BadBeta unless 1/2 < beta < 1, and NotPlanar, with the input's
    vertex and edge counts, for a non-planar input. The Separator's
    ``stage_ns`` holds each stage's wall time in ns.
    """
    stage_ns: dict[str, int] = {}

    def tick(name, t0):
        stage_ns[name] = (t := perf_counter_ns()) - t0
        return t

    beta = check_beta(beta)
    if G.total_weight == 0:
        raise ZeroTotalWeight("all vertex weights are zero")
    t0 = perf_counter_ns()
    T = compute_spanning_tree(G, root=root)  # raises Disconnected
    t0 = tick("spanning_tree", t0)

    stages: list[TraceStage] = []
    if trace:
        stages.append(TraceStage("input", G))

    r = G.excess
    if r < 0:
        # a tree: its weighted centroid leaves parts of weight <= W/2
        rows = _InducedRows(G, np.arange(G.n), np.ones(G.n, dtype=bool))
        c = tree_centroid(range(G.n), rows, G.weights)
        sep = heavy_vertex_fixup(G, T, EdgeSet(edges=[]), {c}, beta)
        tick("lift_and_repair", t0)
        sep.stage_ns = stage_ns
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
    sep = heavy_vertex_fixup(G, T, R, lifted, beta, fragments, cw)
    tick("lift_and_repair", t0)
    sep.stage_ns = stage_ns

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

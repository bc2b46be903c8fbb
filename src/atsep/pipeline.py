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

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from math import ceil, sqrt
from time import perf_counter_ns

import numpy as np

from .errors import (
    BadVertexId,
    EmptyTerminals,
    EmptyTree,
    NotPlanar,
    RepairCapExceeded,
    ZeroTotalWeight,
)
from .fileformat import format_graph
from .graph import (
    Graph,
    SpanningTree,
    _bfs_layers,
    _frontier_neighbors,
    _unique,
    check_beta,
    graph_from_edges,
    verify_separator,  # unused here; benchmark/test_benchmark.py reads this binding
)
from .planar import lt_separator


def compute_spanning_tree(G: Graph, root: int = 0) -> SpanningTree:
    """BFS spanning tree; raises Disconnected if some vertex is unreachable.

    The tree is the walk of ``graph._bfs_layers``: each vertex's parent is
    its lowest-ID neighbour one BFS layer up. Each leaf (degree 1, not the
    root) is hung off its one neighbour before the walk, in one array
    pass, so the walk steps through the other vertices only; the parents
    are those of a full walk, and ``Disconnected.reached`` counts a hung
    leaf only if its neighbour was reached. Raises BadVertexId for a
    root outside [0, n).
    """
    parent = np.empty(G.n, dtype=np.int64)
    for _ in _bfs_layers(G, root, parent, hang_leaves=True):
        pass
    return SpanningTree(root=root, parent=parent)


def extra_edges(G: Graph, T: SpanningTree) -> np.ndarray:
    """Non-tree edges R = E(G) \\ E(T) as an (m - n + 1, 2) int64 array.

    Rows (u, v) have u < v and come by u, then by v's place in u's
    neighbour list. Only the vertices whose degree in G exceeds their
    degree in T have non-tree edges, so only their rows are read.
    """
    parent = T.parent
    # a vertex's row ends past its start plus its tree degree, built in
    # place; parent[root] == root counts the root as its own child,
    # standing in for the parent edge it lacks
    tree_end = np.bincount(parent, minlength=G.n)
    tree_end += 1
    tree_end[T.root] -= 2
    tree_end += G.indptr[:-1]
    ends = (G.indptr[1:] > tree_end).nonzero()[0]
    del tree_end
    nbrs, counts = _frontier_neighbors(G.indptr, G.indices, ends)
    src = np.repeat(ends, counts)
    keep = ((src < nbrs) & (parent[src] != nbrs) & (parent[nbrs] != src)).nonzero()[0]
    return np.column_stack((src[keep], nbrs[keep]))


@dataclass
class SteinerSubtree:
    """Minimal subtree of the spanning tree containing all terminals.

    ``member`` marks the subtree's vertices, ``top`` is its vertex nearest
    the root, ``forks`` lists in order its vertices of degree three or
    more, and ``parent`` is the spanning tree's parent array. No degree is
    kept per vertex: ``degree`` counts one from the members.
    """

    member: np.ndarray
    top: int
    forks: np.ndarray
    parent: np.ndarray

    def vertices(self) -> list[int]:
        return self.member.nonzero()[0].tolist()

    def degree(self, v: int) -> int:
        """v's degree inside the subtree, 0 outside it; one pass over the members."""
        if not self.member[v]:
            return 0
        # the root is its own parent, and top's parent is outside
        children = np.count_nonzero(self.parent[self.member.nonzero()[0]] == v)
        return int(children) - int(self.parent[v] == v) + int(v != self.top)

    def edges(self) -> list[tuple[int, int]]:
        """Subtree edges as sorted (u, v) pairs with u < v."""
        child = self.member.nonzero()[0]
        child = child[child != self.top]
        up = self.parent[child]
        lo, hi = np.minimum(child, up), np.maximum(child, up)
        order = np.lexsort((hi, lo))
        return list(zip(lo[order].tolist(), hi[order].tolist()))


def _position_map(n: int, verts: np.ndarray) -> np.ndarray:
    """An n-array giving each of the sorted ``verts`` its position among
    them, as int32 below 2^31 vertices; other entries are unset.

    Cast gathered positions to int64 before they index a hot gather:
    numpy gathers through int32 index arrays about 3.5x slower.
    """
    pos = np.empty(n, dtype=np.int32 if n < 2**31 else np.int64)
    pos[verts] = np.arange(verts.size, dtype=pos.dtype)
    return pos


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

    Cost, with D the BFS depth of the deepest terminal: a bool and an
    int32 array of length n, O(log D) numpy passes over the marked
    vertices, and one small gather per level walked (at most 2D), which is
    what a deep tree with a narrow union (a long cycle or path) pays for.
    """
    terms = _unique(np.fromiter(terminals, dtype=np.int64))
    if terms.size == 0:
        raise EmptyTerminals("steiner subtree needs at least one terminal")
    parent = T.parent
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
    verts = member.nonzero()[0]
    # work on the marked vertices' positions in verts
    index = _position_map(n, verts)
    up = index[parent[verts]].astype(np.int64)
    at_root = int(index[root])  # an int32 scalar would slow every compare below
    children = np.bincount(up, minlength=verts.size)
    children[at_root] -= 1  # the root, always marked, is its own parent
    # depth of each marked vertex: after k rounds, up jumps 2^k levels
    # (stopping at the root) and depth holds min(2^k, depth)
    depth = (verts != root).astype(np.int64)
    while (up != at_root).any():
        depth += depth[up]
        up = up[up]
    top_like = children != 1
    top_like[index[terms].astype(np.int64)] = True
    del index
    candidates = top_like.nonzero()[0]
    i = candidates[np.argmin(depth[candidates])]
    top = int(verts[i])
    member[verts[(depth < depth[i]).nonzero()[0]]] = False
    degrees = children  # marked children; every member but top adds its parent
    degrees += 1
    degrees[i] -= 1
    # the dropped chain's vertices have one marked child each, so degree 2
    forks = verts[(degrees >= 3).nonzero()[0]]
    return SteinerSubtree(member=member, top=top, forks=forks, parent=parent)


def branch_vertices(T1: SteinerSubtree, terminals) -> list[int]:
    """Terminals plus every subtree vertex of degree three or more, sorted."""
    mask = np.zeros(len(T1.member), dtype=bool)
    mask[T1.forks] = True
    mask[list(terminals)] = True
    return mask.nonzero()[0].tolist()


@dataclass
class Paths:
    """P paths as int64 arrays: path j runs from ``ends[j, 0]`` to ``ends[j, 1]``
    through ``interiors[offsets[j]:offsets[j + 1]]``, in that order."""

    ends: np.ndarray
    interiors: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.ends)


def decompose_paths(T1: SteinerSubtree, U: list[int]) -> Paths:
    """Edge-disjoint cover of the subtree by maximal U-to-U paths.

    Every subtree vertex outside U other than ``top`` has exactly one
    subtree child, so each path is the upward chain from a branch vertex
    b != top; a ``top`` outside U joins the two chains that meet at it.
    Paths run from their smaller endpoint and come in order of (that
    endpoint, its neighbour on the path). Pointer doubling over the
    members' one-child pointers gives each interior vertex its chain and
    its distance d from the chain's bottom b. Of a path's n interior
    vertices, the one at d then sits d - 1 places from its start if the
    path runs up from b, and n - d if it runs down to b.
    """
    parent, top = T1.parent, T1.top
    verts = T1.member.nonzero()[0]
    k = verts.size
    # work on the members' positions in verts
    pos = _position_map(len(parent), verts)
    inner = np.ones(k, dtype=bool)
    inner[pos[np.array(U, dtype=np.int64)]] = False
    t = int(pos[top])
    joined = inner[t]
    inner[t] = False
    child = (np.arange(k) != t).nonzero()[0]
    up = pos[parent[verts[child]]].astype(np.int64)
    del pos
    ptr = np.arange(k)  # non-interior members point at themselves
    below = inner[up].nonzero()[0]
    ptr[up[below]] = child[below]
    del child, up, below
    dist = inner.astype(np.int64)
    interior = inner.nonzero()[0]
    active = interior
    while active.size:
        nxt = ptr[active]
        dist[active] += dist[nxt]
        ptr[active] = ptr[nxt]
        active = active[inner[ptr[active]].nonzero()[0]]
    starts = (~inner).nonzero()[0]
    starts = starts[starts != t]
    ptr[starts] = np.arange(starts.size)  # the bottoms' chains
    chain = ptr[ptr[interior]]
    del ptr
    dist, interior = dist[interior], verts[interior]
    sizes = np.bincount(chain, minlength=starts.size)
    # a chain ends at the parent of its highest vertex
    last = verts[starts]
    high = (dist == sizes[chain]).nonzero()[0]
    last[chain[high]] = interior[high]
    ends = np.column_stack((verts[starts], parent[last]))
    if joined:
        # chain b, read down, continues chain a through top
        a, b = (ends[:, 1] == top).nonzero()[0]
        on_b = chain == b
        dist[on_b] = sizes[a] + sizes[b] + 2 - dist[on_b]
        chain = np.append(np.where(on_b, a, chain), a)
        chain -= chain > b
        dist, interior = np.append(dist, sizes[a] + 1), np.append(interior, top)
        ends[a, 1], sizes[a] = ends[b, 0], sizes[a] + sizes[b] + 1
        ends, sizes = np.delete(ends, b, axis=0), np.delete(sizes, b)
    at = np.where((ends[:, 0] > ends[:, 1])[chain], sizes[chain] - dist, dist - 1)
    ends = np.column_stack((ends.min(axis=1), ends.max(axis=1)))
    second = ends[:, 1].copy()
    first = (at == 0).nonzero()[0]
    second[chain[first]] = interior[first]
    order = np.lexsort((second, ends[:, 0]))
    offsets = np.concatenate(([0], np.cumsum(sizes[order])))
    flat = np.empty(interior.size, dtype=np.int64)
    flat[offsets[np.argsort(order)][chain] + at] = interior
    return Paths(ends[order], flat, offsets)


@dataclass
class CollapsedWeights:
    """Weights after every outside vertex donates to its nearest subtree vertex.

    A vertex's entry is the nearest vertex on its root path, itself
    included, that is the root, a subtree vertex or a child of one;
    ``entries`` marks them, and an entry's slot is its position in
    ``entries.nonzero()[0]``. ``sums`` holds what the vertices of each
    entry weigh, ``up`` each entry's parent's entry slot and ``top`` the
    root's slot, all by slot, for the repair's search. ``weights`` holds
    the collapsed weight of each of T1's members, in ascending vertex
    order, until ``build_compressed_graph`` takes it. Only the entry mask
    is n-length: no vertex keeps its entry's slot (``_entries`` builds
    that index on request).
    """

    entries: np.ndarray
    up: np.ndarray
    top: int
    sums: np.ndarray
    weights: np.ndarray | None
    T1: SteinerSubtree
    root: int


# pointers jump in place this many at a time, so a jump's temporaries
# stay this size whatever the number of nodes
_JUMP_CHUNK = 2**15


def _jump(ptr: np.ndarray, landed: Callable[[np.ndarray], bool]) -> None:
    """Jumps every pointer to its target's pointer, in place, until
    ``landed`` holds for every chunk of jumped pointers.

    Each pointer must reach, along the pointers, a node that points at
    itself; a round halves every distance left, so O(log D) rounds
    suffice (D the longest such distance; whole-chunk gathers beat
    tracking the pointers still moving). A round jumps a chunk at a time:
    a pointer only moves toward its fixed point, so reading a pointer
    that an earlier chunk already moved is as good as reading it unmoved,
    and faster.
    """
    moved = True
    while moved:
        moved = False
        for lo in range(0, len(ptr), _JUMP_CHUNK):
            chunk = ptr[lo:lo + _JUMP_CHUNK]
            chunk[...] = ptr[chunk]
            moved = moved or not landed(chunk)


def _nearest_marked(up: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Each node's nearest marked node on its root path, itself included.

    The root must be marked. ``up`` takes each node to a proper ancestor
    with no marked node strictly between, such as its parent. Marked
    nodes point at themselves and the others along ``up``, and one
    ``_jump`` ends once every pointer lands on a marked node.
    """
    ptr = up.copy()
    marked = mark.nonzero()[0]
    ptr[marked] = marked
    _jump(ptr, lambda chunk: mark[chunk].all())
    return ptr


def _entries(parent: np.ndarray, root: int, marked: np.ndarray, weights: np.ndarray | None,
             index: bool = False):
    """``(entries, up, top, sums, index)`` of a marked vertex set.

    ``entries`` masks its entries: the marked vertices, their children and
    the root. An entry's slot is its position among them; ``up`` gives
    each entry its parent's entry slot and ``top`` is the root's slot. A
    vertex's entry is the nearest entry on its root path, itself included.
    ``sums`` holds what the vertices of each entry weigh (None without
    ``weights``), and ``index``, each vertex's entry slot as n int64s, is
    None unless asked for.

    One ``_jump`` over n + k int64 pointers finds every entry, k being the
    number of entries: a vertex points at its parent, an entry at the
    slot n + its position, and a slot at itself, so every vertex lands on
    its entry's slot, and the slots are the landed pointers less n. The
    pointers are the call's only n-length numeric array; no position map
    is kept beside them, and the entry mask is made again once they are
    freed.
    """
    n = len(parent)
    entries = marked | marked[parent]
    entries[root] = True
    ids = entries.nonzero()[0]
    del entries  # made again once the pointers are gone
    ptr = np.concatenate((parent, np.arange(n, n + ids.size)))
    ptr[ids] = ptr[n:]
    _jump(ptr, lambda chunk: chunk.min() >= n)
    slot = ptr[:n]
    slot -= n
    up = slot[parent[ids]]
    top = int(slot[root])
    sums = None
    if weights is not None:
        sums = np.zeros(ids.size, dtype=np.int64)
        np.add.at(sums, slot, weights)
    index = slot if index else None
    del ptr, slot
    entries = np.zeros(n, dtype=bool)
    entries[ids] = True
    return entries, up, top, sums, index


def collapse_weights(G: Graph, T: SpanningTree, T1: SteinerSubtree) -> CollapsedWeights:
    """Each vertex donates its weight to its nearest subtree vertex in T.

    T1 is connected, so that vertex is unique: the first T1 vertex on the
    vertex's root path, or T1's top vertex if the path misses T1 (every
    path from the vertex into T1 then enters through the top). The
    vertex's entry for T1's members, from ``_entries``, is that vertex,
    or its child, or the root. The weights are summed once per entry and
    then moved to the entries' subtree vertices, so weight conservation
    is exact. The entries are kept for ``heavy_vertex_fixup``: with T1
    marked, they hold every piece head of a separator inside T1.
    """
    entries, up, top, sums, _ = _entries(T1.parent, T.root, T1.member, G.weight_array)
    ids = entries.nonzero()[0]
    member = T1.member[ids]
    # by slot: a member keeps its entry's sum, and any other entry is a
    # member's child, which gives its sum to its parent's slot, or a root
    # above T1, which gives it to T1's top
    weights = np.where(member, sums, 0)
    given = (~member).nonzero()[0]
    to = up[given]
    if not T1.member[T.root]:
        to[given == top] = np.searchsorted(ids, T1.top)
    np.add.at(weights, to, sums[given])
    # the members' slots come in vertex order, as the members do
    return CollapsedWeights(entries=entries, up=up, top=top, sums=sums,
                            weights=weights[member], T1=T1, root=T.root)


@dataclass
class CompressedGraph:
    """Branch nodes plus one weighted subdivision node per path.

    Node i < len(branch) is the branch vertex ``branch[i]``; node
    len(branch) + j is the subdivision node of path j of ``paths``,
    weighing its interior. ``edges`` is an (E, 2) int64 array: for each
    path, (its first end's node, its node) and (its node, its last end's
    node), then R's edges as pairs of branch nodes. ``interior_weights``
    holds the collapsed weight of each vertex of ``paths.interiors``, in
    the same order, for lifting: the one weights array past the build.
    """

    node_weights: list[int]
    edges: np.ndarray
    branch: list[int]
    paths: Paths
    interior_weights: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.node_weights)

    def simple_graph(self) -> Graph:
        """The compressed graph as a ``Graph``.

        It has no parallel edges to collapse: each subdivision node joins
        the two ends of its path, which differ, and the edges of R are
        distinct non-tree edges between branch nodes. Each node's
        neighbours come in ascending order: with the edges sorted by
        (lower, higher) end, a node's lower neighbours come before its
        higher ones, each run ascending.
        """
        n, pairs = self.num_nodes, self.edges
        lo, hi = np.divmod(np.sort(pairs.min(axis=1) * n + pairs.max(axis=1)), n)
        return graph_from_edges(n, lo, hi, list(self.node_weights))


def build_compressed_graph(U: list[int], Pi: Paths, R: np.ndarray,
                           cw: CollapsedWeights) -> CompressedGraph:
    """The compressed graph of the branch vertices U and the paths Pi.

    Takes cw's member weights (``cw.weights`` is None afterwards): the
    branch nodes and the paths' interiors read them through a transient
    position map, and the paths keep theirs in path order.
    """
    branch = np.array(U, dtype=np.int64)
    weights, cw.weights = cw.weights, None
    pos = _position_map(len(cw.T1.member), cw.T1.member.nonzero()[0])
    interior_weights = weights[pos[Pi.interiors].astype(np.int64)]
    branch_weights = weights[pos[branch]]
    del pos, weights
    # running sums over all interiors; a path weighs the rise across its own
    prefix = np.concatenate(([0], np.cumsum(interior_weights)))
    node_weights = branch_weights.tolist() + np.diff(prefix[Pi.offsets]).tolist()
    sub = np.arange(len(U), len(U) + len(Pi))
    ends = np.searchsorted(branch, Pi.ends)
    edges = np.column_stack((ends[:, 0], sub, sub, ends[:, 1])).reshape(-1, 2)
    return CompressedGraph(node_weights=node_weights,
                           edges=np.concatenate((edges, np.searchsorted(branch, R))),
                           branch=U, paths=Pi, interior_weights=interior_weights)


def _median_cut(vertices: np.ndarray, weights: np.ndarray) -> int:
    """The vertex whose cut leaves the lightest heavier side, of the weight
    before it and the weight after it; ties -> lower ID. ``weights`` are
    the vertices' own, in the same order."""
    ends = np.cumsum(weights)
    cost = np.maximum(ends - weights, ends[-1] - ends)
    return int(vertices[cost == cost.min()].min())


def lift_separator(Sc, C: CompressedGraph, beta=Fraction(2, 3)):
    """Map a compressed separator back to original vertex IDs, two ways.

    Returns ``(lifted, exact)``. Both lift branch nodes to themselves and
    take the selected paths in node order, reading the set as it stands.
    ``lifted`` cuts a path's interior at its weighted median and an
    interior-free path at an endpoint not yet covered. ``exact`` cuts a
    branch vertex that ends two or more selected paths, the interior ends
    whose path endpoint is not in the set, the lower endpoint of an
    interior-free path with neither endpoint in it, and the weighted
    median of a middle left that weighs more than beta * W.
    """
    beta = Fraction(beta)
    W = sum(C.node_weights)
    k = len(C.branch)
    lifted = {C.branch[node] for node in Sc if node < k}
    chosen = sorted(node - k for node in Sc if node >= k)
    paths, offsets = C.paths, C.paths.offsets
    ends, counts = np.unique(paths.ends[chosen], return_counts=True)
    exact = lifted | set(ends[counts >= 2].tolist())
    for j in chosen:
        a, b = paths.ends[j].tolist()
        interior = paths.interiors[offsets[j]:offsets[j + 1]]
        if interior.size == 0:
            a, b = min(a, b), max(a, b)
            lifted.add(b if a in lifted else a)
            if a not in exact and b not in exact:
                exact.add(a)
            continue
        weights = C.interior_weights[offsets[j]:offsets[j + 1]]
        lifted.add(_median_cut(interior, weights))
        # interior[0] meets a, interior[-1] meets b
        lo, hi = int(a not in exact), interior.size - (b not in exact)
        exact.update(interior[:lo].tolist(), interior[max(hi, lo):].tolist())
        middle = interior[lo:hi]
        if middle.size and int(weights[lo:hi].sum()) * beta.denominator > W * beta.numerator:
            exact.add(_median_cut(middle, weights[lo:hi]))
    return lifted, exact


def tree_centroid(G: Graph) -> int:
    """Vertex of a weighted tree whose removal leaves parts of weight <= W/2.

    The walk is ``graph._bfs_layers`` from vertex 0, each vertex hanging
    off its lowest-ID neighbour one layer up, as in
    ``compute_spanning_tree``: on a connected graph with cycles, the
    result is the centroid of that BFS tree. Ties go to the lowest ID.
    """
    if G.n == 0:
        raise EmptyTree("centroid of an empty tree")
    parent = np.empty(G.n, dtype=np.int64)
    order: list[int] = []
    for layer in _bfs_layers(G, 0, parent):
        order += layer if isinstance(layer, list) else layer.tolist()
    # subtree weights, children before parents; plain lists beat a
    # numpy scatter per layer on a deep tree
    up, subtree = parent.tolist(), G.weight_array.tolist()
    for v in order[:0:-1]:
        subtree[up[v]] += subtree[v]
    subtree = np.array(subtree, dtype=np.int64)
    heaviest_child = np.zeros(G.n, dtype=np.int64)
    np.maximum.at(heaviest_child, parent[1:], subtree[1:])  # vertex 0 is the root
    return int(np.argmin(np.maximum(G.total_weight - subtree, heaviest_child)))


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
    """Heaviest component of G - S: its weight, label and whether it is a tree.

    The search ran over the entries of a marked set, the slots: ``ids``
    takes each slot to its vertex, ``head`` each slot to its piece's head
    slot and ``labels`` each head slot to its component's, whose label is
    one of its head slots. ``best`` holds the labels of the components of
    the heaviest weight (every head when that is 0), and ``cyclic`` the
    labels of the components with a cycle. ``index()`` builds each
    vertex's slot on the first call; only ``inside``, ``head_of`` and a
    tie between the heaviest components need it. The repair loop reads
    them only before a repair, and a tie never comes before one: two
    components heavier than beta * W > W / 2 cannot both exist.
    """

    weight: int
    best: np.ndarray
    cyclic: set[int]
    head: np.ndarray
    labels: np.ndarray
    removed: np.ndarray
    ids: np.ndarray
    index: Callable[[], np.ndarray]

    @cached_property
    def slot(self) -> int:
        """The label of this component, -1 when G - S is empty; ties go to
        the component holding the lowest vertex."""
        if self.best.size <= 1:
            return int(self.best[0]) if self.best.size else -1
        tied = np.zeros(len(self.head), dtype=bool)
        tied[self.best] = True
        index = self.index()
        first = int(np.argmax(tied[self.labels[self.head]][index] & ~self.removed))
        return int(self.labels[self.head[index[first]]])

    @property
    def is_tree(self) -> bool:
        return self.slot >= 0 and self.slot not in self.cyclic

    @property
    def label(self) -> int:
        """The vertex that names it, or -1 when G - S is empty."""
        return -1 if self.slot < 0 else int(self.ids[self.slot])

    def head_of(self) -> np.ndarray:
        """Each vertex's piece head."""
        return self.ids[self.head][self.index()]

    def inside(self) -> np.ndarray:
        """Mask of its vertices."""
        return (self.labels[self.head] == self.slot)[self.index()] & ~self.removed


class _TreePlusExtra:
    """G as its spanning tree T plus the non-tree edges R, for searching G - S.

    G - S is the pieces of T - S joined by the edges of R outside S. A
    piece is named by its head: the root, or a vertex whose parent is in
    S. ``_nearest_marked`` takes every slot to its head, and a union-find
    over the at most r + 1 edges of R joins the pieces. A tree comes with
    an empty R.

    The slots are the entries of a marked set that holds S (``_entries``):
    each steps to its parent's entry slot (``up``, with ``top`` the
    root's) and weighs what the vertices whose entry it is weigh, and S's
    heads (S, its children and the root) are among them. With ``cw`` the
    set starts as T1, whose entries, ``up``, ``top`` and sums cw holds;
    without, as R's ends, which must be entries, collapsed by the first
    search. An S with a vertex outside the set joins it and the entries
    are collapsed again, so the set only grows. No vertex keeps its slot:
    ``index()`` asks ``_entries`` for that n-length index, once per
    marked set, when ``_Heaviest`` needs vertices back.
    """

    def __init__(self, G: Graph, T: SpanningTree, R: np.ndarray,
                 cw: CollapsedWeights | None = None):
        if len(R) != G.m - G.n + 1:
            # R holds only non-tree edges, so with T's n - 1 edges it is
            # all of E(G) exactly when the counts add up
            raise ValueError(
                f"R has {len(R)} edges but G needs m - n + 1 = {G.m - G.n + 1}"
            )
        self.parent, self.root, self.weights = T.parent, T.root, G.weight_array
        self.edges = R
        if cw is None:
            self.marked = np.zeros(G.n, dtype=bool)
            self.marked[self.edges] = True
            self.stale = True
        else:
            self.marked = cw.T1.member  # R's ends are terminals, so members
            self._use(cw.entries, cw.up, cw.top, cw.sums)

    def _use(self, entries: np.ndarray, up: np.ndarray, top: int, sums: np.ndarray):
        """Search over these entries of the marked set from now on."""
        self.up, self.top, self.sums = up, top, sums
        self.ids = entries.nonzero()[0]
        self.ends = np.searchsorted(self.ids, self.edges)
        parent, root, marked = self.parent, self.root, self.marked
        self.index = cache(lambda: _entries(parent, root, marked, None, index=True)[4])
        self.stale = False

    def heaviest(self, removed: np.ndarray) -> _Heaviest:
        """The heaviest component of G - S, S given as a mask over the vertices."""
        if self.stale or not self.marked[removed.nonzero()[0]].all():
            self.marked = self.marked | removed
            self._use(*_entries(self.parent, self.root, self.marked, self.weights)[:4])
        # S is marked, so an entry's parent is in S when its entry is
        removed_s = removed[self.ids]
        head = removed_s | removed_s[self.up]
        head[self.top] = True
        n = len(head)
        ptr = _nearest_marked(self.up, head)
        piece_w = np.zeros(n, dtype=np.int64)
        np.add.at(piece_w, ptr, self.sums)  # an entry of S weighs only itself
        heads = (head ^ removed_s).nonzero()[0]  # the entries of S are heads too
        head_w = piece_w[heads]
        del piece_w

        # union-find over the pieces that edges of R outside S join
        outside = ~removed_s[self.ends].any(axis=1)
        link: dict[int, int] = {}
        cyclic: list[int] = []

        def find(x):
            while x in link:  # roots are never keys
                x = link[x]
            return x

        # slots follow vertex order, so the lower slot is the lower vertex
        for a, b in ptr[self.ends[outside]].tolist():
            a, b = find(a), find(b)
            if a == b:
                cyclic.append(a)
            else:
                link[max(a, b)] = min(a, b)
        # each piece's component, named by one of its heads
        label = np.arange(n, dtype=np.int64)
        if link:
            label[list(link)] = [find(x) for x in link]
        if heads.size == 0:
            return _Heaviest(0, heads, set(), ptr, label, removed, self.ids, self.index)
        # a component's label is one of its heads: weigh them in heads' order
        comp_w = np.zeros(heads.size, dtype=np.int64)
        np.add.at(comp_w, np.searchsorted(heads, label[heads]), head_w)
        weight = comp_w.max()
        return _Heaviest(int(weight), heads[comp_w == weight], {find(x) for x in cyclic},
                         ptr, label, removed, self.ids, self.index)


def heavy_vertex_fixup(
    G: Graph,
    T: SpanningTree,
    R: np.ndarray,
    S,
    beta=Fraction(2, 3),
    exact=None,
    cw: CollapsedWeights | None = None,
) -> Separator:
    """Repair loop for the lifted separator; its last check is the verification.

    T is a spanning tree of G and R its non-tree edges. Each round finds
    the components of G - S on T plus R and compares the heaviest
    exactly against beta * W. While it is too heavy, one repair: S
    becomes ``exact``, the exact lift, the first time the component has
    a cycle; otherwise ``tree_centroid`` of the component, built as a
    graph of its own on its sorted vertices, is added: the centroid of
    its BFS tree from its lowest vertex. Every component of G - exact is
    light or is a subtree of T with no edge of R, which one centroid
    fixes. The loop is capped at 4 sqrt(r + 1) + 2 repairs, r being G's
    excess; the cap signals an algorithmic bug. With ``cw``, the collapsed
    weights over T, a separator inside T1 is searched on cw's entries with
    no new pointer jump. Raises BadBeta unless 1/2 < beta < 1.
    """
    beta = check_beta(beta)
    S = set(S)
    for v in S:
        if not (0 <= v < G.n):
            raise BadVertexId(f"separator vertex {v} out of range")
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
        if not found.is_tree and exact is not None:
            S, exact = set(exact), None
        else:
            # the component as a graph of its own, vertex i being members[i]
            inside = found.inside()
            members = inside.nonzero()[0]
            nbrs, counts = _frontier_neighbors(G.indptr, G.indices, members)
            ends = np.repeat(members, counts)
            once = inside[nbrs] & (ends < nbrs)
            H = graph_from_edges(members.size, np.searchsorted(members, ends[once]),
                                 np.searchsorted(members, nbrs[once]),
                                 G.weight_array[members].tolist())
            S.add(int(members[tree_centroid(H)]))
        removed[:] = False
        removed[list(S)] = True
        repairs += 1
    return Separator(
        vertices=S,
        size=len(S),
        max_component_weight=hw,
        total_weight=W,
        repairs=repairs,
    )


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
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
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
        sep = heavy_vertex_fixup(G, T, np.empty((0, 2), np.int64), {tree_centroid(G)}, beta)
        tick("lift_and_repair", t0)
        sep.stage_ns = stage_ns
        if trace:
            stages.append(TraceStage("separator", G, sorted(sep.vertices)))
            return sep, StageTrace(stages)
        return sep

    R = extra_edges(G, T)
    t0 = tick("extra_edges", t0)
    terminals = _unique(R.flatten())  # a copy: _unique sorts in place
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
    lifted, exact = lift_separator(lt.vertices, C, beta)
    sep = heavy_vertex_fixup(G, T, R, lifted, beta, exact, cw)
    tick("lift_and_repair", t0)
    sep.stage_ns = stage_ns

    if trace:
        stages.append(TraceStage("spanning_tree", _subgraph_same_vertices(G, T.tree_edges())))
        stages.append(TraceStage("extra_edges", _subgraph_same_vertices(G, R)))
        stages.append(
            TraceStage("steiner_subtree", _subgraph_same_vertices(G, T1.edges()), T1.vertices())
        )
        stages.append(
            TraceStage("branch_set", _subgraph_same_vertices(G, T1.edges()), U)
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

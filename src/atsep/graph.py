"""Core graph model: weighted simple graphs, components, separator verification.

Vertex IDs are dense 0-based integers. Weights are non-negative 64-bit
integers so that all conservation checks are exact equalities.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from numbers import Integral

import numpy as np

from .errors import (
    BadBeta,
    BadVertexId,
    DuplicateEdge,
    Disconnected,
    Overflow,
    SelfLoop,
)

MAX_TOTAL_WEIGHT = 2**63 - 1


def _frozen(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with non-negative integer vertex weights.

    The frozen CSR is the only neighbour structure: the neighbours of v
    are ``indices[indptr[v]:indptr[v + 1]]``, in the order the edges were
    given, and Python loops read them as memoryview slices, which yield
    ints in that order. Two traversals pick their form by size, because
    an array pass has a fixed cost that small inputs do not repay:
    ``connected_components`` labels graphs of ``_ARRAY_MIN_N`` vertices
    or more with numpy hook-and-jump rounds and smaller ones with a BFS
    over CSR rows, returning an int64 array either way, and
    ``_bfs_layers``, the one single-source BFS (behind the spanning tree,
    LT's levels, the generator's tree walk and the tree centroid),
    vectorises frontiers of ``_VEC_MIN_FRONTIER`` vertices or more. The
    spanning tree reads each vertex's degree off ``indptr`` to hang the
    leaves before that walk. ``weights`` is a list of Python
    ints; ``weight_array`` and ``total_weight`` are fixed at
    construction. The constructor does not validate; ``build_graph``
    does.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: list[int]
    weight_array: np.ndarray = field(init=False, repr=False)
    total_weight: int = field(init=False)

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "indptr", _frozen(self.indptr))
        set_(self, "indices", _frozen(self.indices))
        w = _frozen(self.weights)
        set_(self, "weight_array", w)
        # weights are validated to sum below 2**63, so int64 sums are exact
        set_(self, "total_weight", int(w.sum()))

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @property
    def excess(self) -> int:
        """r = m - n; equals -1 for a tree."""
        return self.m - self.n

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edges(self):
        """Each undirected edge once, as (u, v) with u < v, in CSR order."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        once = src < self.indices
        return zip(src[once].tolist(), self.indices[once].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if self.degree(u) <= self.degree(v) else (v, u)
        return bool((self.indices[self.indptr[a]:self.indptr[a + 1]] == b).any())


def graph_from_edges(n: int, u, v, weights) -> Graph:
    """Unvalidated Graph on edges (u[i], v[i]), neighbours in edge order.

    Each vertex's neighbours come in the order of its edges in the input,
    as appending both half-edges of each edge in turn would give.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = len(u)
    src = np.empty(2 * m, dtype=np.int64)
    dst = np.empty(2 * m, dtype=np.int64)
    src[0::2], src[1::2] = u, v
    dst[0::2], dst[1::2] = v, u
    # sort by (source, position): the keys are distinct, so their sorted
    # values modulo 2m are the positions in sorted order
    order = np.sort(src * (2 * m) + np.arange(2 * m, dtype=np.int64)) % (2 * m)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n=n, indptr=indptr, indices=dst[order], weights=weights)


@dataclass
class SpanningTree:
    """Rooted spanning tree in parent-pointer form; parent[root] == root.

    ``parent`` may be given as any sequence of vertex IDs; it is stored
    as an int64 array, so no stage converts it again. The pipeline reads
    nothing else: depths and nearest ancestors come from pointer jumps
    over ``parent``.
    """

    root: int
    parent: np.ndarray

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.parent)

    def tree_edges(self) -> list[tuple[int, int]]:
        child = (self.parent != np.arange(self.n)).nonzero()[0]
        up = self.parent[child]
        return list(zip(np.minimum(child, up).tolist(), np.maximum(child, up).tolist()))


def build_graph(n: int, edges, weights=None) -> Graph:
    """Validate and build a Graph from an edge list.

    ``edges`` is an iterable of (u, v) pairs or an (m, 2) int64 array,
    which is read without a pass in Python. Weights must be integers
    (numpy's included). Raises BadVertexId, SelfLoop, DuplicateEdge or
    Overflow on bad input, for the first bad weight,
    else the first bad edge, in input order. Each vertex's neighbours
    keep the order of its edges in the input.
    """
    if n < 0:
        raise BadVertexId(f"negative vertex count {n}")
    weights = [1] * n if weights is None else list(weights)
    if len(weights) != n:
        raise BadVertexId(f"expected {n} weights, got {len(weights)}")
    try:
        total = sum(weights)
    except TypeError:
        total = None
    # a float, Decimal or Fraction weight makes the total one too, and
    # numpy integers add up in fixed width, which can wrap: both are
    # checked one weight at a time
    if type(total) is not int or (
        weights and (min(weights) < 0 or total > MAX_TOTAL_WEIGHT)
    ):
        _raise_first_bad_weight(weights)

    if (
        isinstance(edges, np.ndarray)
        and edges.dtype == np.int64
        and edges.ndim == 2
        and edges.shape[1] == 2
    ):
        u, v = edges[:, 0], edges[:, 1]
    else:
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        ends = chain.from_iterable(edges)
        try:
            flat = np.fromiter(ends, dtype=np.int64, count=2 * len(edges))
        except (OverflowError, ValueError, TypeError):
            flat = None
        if flat is None or next(ends, None) is not None:
            _raise_first_bad_edge(n, edges)  # not all pairs of 64-bit integers
        u, v = flat[0::2], flat[1::2]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.sort(lo * n + hi)
    if bad.any() or (keys[1:] == keys[:-1]).any():
        _raise_first_bad_edge(n, edges.tolist() if isinstance(edges, np.ndarray) else edges)
    return graph_from_edges(n, u, v, weights)


def _raise_first_bad_weight(weights) -> None:
    total = 0
    for v, w in enumerate(weights):
        if not isinstance(w, Integral):
            raise Overflow(f"non-integer weight {w!r} at vertex {v}")
        if w < 0:
            raise Overflow(f"negative weight {w} at vertex {v}")
        total += int(w)
        if total > MAX_TOTAL_WEIGHT:
            raise Overflow("total weight exceeds 64 bits")


def _raise_first_bad_edge(n: int, edges) -> None:
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertexId(f"edge ({u}, {v}) out of range [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)


# frontiers below this size step through plain Python; larger ones run as
# array passes. On the thin layers of a subdivided grid the whole walk is
# fastest with any threshold from 16 to 48 (README.md has the sweep); the
# fronts of a cycle or a path stay below it
_VEC_MIN_FRONTIER = 32


def _frontier_neighbors(indptr, indices, frontier):
    """All neighbors of the frontier (with repetition), plus per-vertex counts."""
    ends = indptr[1:][frontier]
    counts = ends - indptr[frontier]
    # the k-th entry overall lies at ends[i] - cum[i] + k, where cum[i] is
    # the running count through vertex i
    ends -= np.cumsum(counts)
    at = np.repeat(ends, counts)
    at += np.arange(len(at), dtype=np.int64)
    return indices[at], counts


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array, which it sorts in place.

    Every caller passes a fresh array, so no copy is made. Plain np.unique
    imports numpy.ma on its first call (40-130 ms), which a process that
    separates one small graph would pay in full.
    """
    a.sort()
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    # positions index faster than the mask itself; the package takes them
    # as x.nonzero()[0] throughout, np.flatnonzero(x) without its ravel,
    # which costs about a microsecond a call, a share of a small graph's stage
    return a[first.nonzero()[0]]


# the leaves are found and hung this many vertices at a time, so what a
# block holds, not one entry per leaf of the graph, is all that lives
_LEAF_BLOCK = 2**16


def _hang_leaves(G: Graph, root: int, parent: np.ndarray):
    """Hang each leaf (degree 1, not the root) off its one neighbour.

    Fills ``parent`` with n and then each leaf's neighbour, which is its
    lowest-ID neighbour one BFS layer up; no vertex hangs off a leaf, so
    a walk that never expands the leaves finds every other vertex with
    the same parent. Returns the walk's ``seen`` bytes with the leaves
    marked 2. Two adjacent leaves form a component without the root;
    then nothing is hung, since the walk's check that every byte is
    marked would pass on that component's two leaves.

    The vertices go in blocks of ``_LEAF_BLOCK``, and a block marks and
    hangs its leaves before the next is read. Of two adjacent leaves, the
    later block's finds the other one marked; it then unmarks and
    unhangs every leaf.
    """
    indptr, indices, n = G.indptr, G.indices, G.n
    seen = bytearray(n)
    mark = np.frombuffer(seen, dtype=np.uint8)
    for lo in range(0, n, _LEAF_BLOCK):
        row = indptr[lo:lo + _LEAF_BLOCK + 1]
        # the block's degrees, written into its part of the parent array
        degree = parent[lo:lo + _LEAF_BLOCK]
        np.subtract(row[1:], row[:-1], out=degree)
        if lo <= root < lo + degree.size:
            degree[root - lo] = 0
        at = (degree == 1).nonzero()[0]
        degree.fill(n)
        # each leaf's row start, gathered once, becomes its neighbour in place
        up = row[at]
        np.take(indices, up, out=up, mode="clip")
        at += lo
        mark[at] = 2
        if mark[up].any():  # a marked neighbour, as only leaves are marked yet
            parent.fill(n)
            mark.fill(0)
            break
        parent[at] = up
    return seen


def _bfs_layers(G: Graph, root: int, parent: np.ndarray, hang_leaves: bool = False):
    """Yield the BFS layers from ``root``, each in ascending vertex-ID order.

    Frontiers below ``_VEC_MIN_FRONTIER`` vertices step through Python
    over CSR rows and yield lists of ints; bigger ones run as array passes
    and yield int64 arrays. Once the walk ends, the int64 array ``parent``
    holds each vertex's lowest-ID neighbour one layer up, and the root.
    With ``hang_leaves``, ``_hang_leaves`` writes the leaves' parents
    first and the layers leave the leaves out. Raises BadVertexId for a
    root outside [0, n), and Disconnected after the last layer if some
    vertex is unreachable.
    """
    n = G.n
    if not 0 <= root < n:
        raise BadVertexId(f"root {root} out of range [0, {n})")
    indptr, indices = G.indptr, G.indices
    # ``parent`` starts above every ID, for the vector steps' np.minimum.at;
    # ``seen`` is nonzero once found, 2 for a hung leaf, and the scalar
    # steps index it directly
    if hang_leaves:
        seen = _hang_leaves(G, root, parent)
    else:
        parent.fill(n)
        seen = bytearray(n)
    seen[root] = 1
    mark = np.frombuffer(seen, dtype=np.uint8)  # the same bytes, for vector steps
    # memoryviews index and slice to Python ints faster than the arrays do
    row_at, nbr = memoryview(indptr), memoryview(indices)
    # scalar steps write their finds to ``parent`` once, at the end: a
    # numpy write per small layer costs more than the layer on a deep tree,
    # and a scatter straight from the lists costs more than making arrays
    kids, ups = [root], [root]
    frontier = [root]
    while len(frontier):
        yield frontier
        if len(frontier) < _VEC_MIN_FRONTIER:
            new = []
            # ascending finders, so each vertex's first finder is its lowest
            for u in frontier if isinstance(frontier, list) else frontier.tolist():
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
            found = (mark[nbrs] == 0).nonzero()[0]  # positions index faster than a mask
            finds = nbrs[found]
            np.minimum.at(parent, finds, np.repeat(fr, counts)[found])
            frontier = _unique(finds)
            mark[frontier] = 1
    parent[np.fromiter(kids, dtype=np.int64, count=len(kids))] = np.fromiter(
        ups, dtype=np.int64, count=len(ups))
    if np.count_nonzero(mark) != n:
        # a hung leaf is reached only if the vertex it hangs off was walked
        walked = mark == 1
        raise Disconnected(np.count_nonzero(walked) + np.count_nonzero(walked[parent[mark == 2]]),
                           n, root)


# below this vertex count the deque BFS over CSR rows beats the array
# labeller, whose fixed cost of a dozen array passes a round a small
# graph's whole search does not repay. Best of 7 calls, BFS against
# arrays, on grids with their middle row removed: 144 nodes 54 vs 47 us,
# 256 nodes 99 vs 64 us, 10^4 nodes 4.4 vs 1.4 ms. On the 452 LT
# component passes of the benchmark's many-small seed 1 (at most 377
# nodes) the two cross between 96-127 nodes (39 vs 41 us a call) and
# 128-159 (53 vs 43 us): the BFS throughout takes 20.2 ms, arrays
# throughout 21.7 ms, split here 16.9 ms. core-2k's three passes on
# about 10^4 nodes take 14.0 ms as a BFS and 1.5 ms as arrays.
_ARRAY_MIN_N = 128


def connected_components(G: Graph, removed=None) -> np.ndarray:
    """Component ID per vertex, an int64 array; removed vertices (if
    given) get ID -1.

    IDs are assigned in order of each component's lowest vertex. Raises
    BadVertexId if a removed vertex lies outside [0, n).
    """
    n = G.n
    if removed and not (0 <= min(removed) and max(removed) < n):
        bad = next(v for v in removed if not 0 <= v < n)
        raise BadVertexId(f"removed vertex {bad} out of range [0, {n})")
    if n >= _ARRAY_MIN_N:
        return _label_components(G, removed)
    comp = [-1] * n
    blocked = removed if removed is not None else frozenset()
    row_at, nbr = memoryview(G.indptr), memoryview(G.indices)
    next_id = 0
    queue = deque()
    for s in range(n):
        if comp[s] != -1 or s in blocked:
            continue
        comp[s] = next_id
        queue.append(s)
        while queue:
            u = queue.popleft()
            for v in nbr[row_at[u]:row_at[u + 1]]:
                if comp[v] == -1 and v not in blocked:
                    comp[v] = next_id
                    queue.append(v)
        next_id += 1
    return np.array(comp, dtype=np.int64)


def _label_components(G: Graph, removed) -> np.ndarray:
    """``connected_components`` as array passes: Shiloach and Vishkin's
    hook and jump over the edges of G - removed.

    ``f`` points each vertex at a lower or equal vertex of its component.
    Each round drops the edges whose ends already share a label, hooks
    each root ``hi`` onto the lowest ``lo`` it meets and halves every
    path with one pointer jump. Only roots hook: a non-root's pointer is
    the only record of an earlier merge. Once every edge's ends share a
    label, each component is one tree, and jumps until nothing moves
    point every vertex at its root. Pointers only go down, so the root is
    the component's lowest vertex.
    """
    n, indptr, indices = G.n, G.indptr, G.indices
    ids = np.arange(n, dtype=np.int64)
    src = np.repeat(ids, indptr[1:] - indptr[:-1])
    keep = src < indices
    blocked = np.zeros(n, dtype=bool)
    if removed:
        blocked[np.fromiter(removed, dtype=np.int64, count=len(removed))] = True
        keep &= ~blocked[src]
        keep &= ~blocked[indices]
    at = keep.nonzero()[0]  # positions gather faster than the mask
    u, v = src[at], indices[at]
    del src, keep, at
    # every vertex starts as a root and every u < v: the first round hooks
    # each v with no check
    f = ids.copy()
    np.minimum.at(f, v, u)
    f = f[f]
    while True:
        fu, fv = f[u], f[v]
        live = (fu != fv).nonzero()[0]
        if not live.size:
            break
        u, v, fu, fv = u[live], v[live], fu[live], fv[live]
        hi = np.maximum(fu, fv)
        lo = np.minimum(fu, fv, out=fu)
        root = (f[hi] == hi).nonzero()[0]
        np.minimum.at(f, hi[root], lo[root])
        f = f[f]
    # an edge dropped early can leave its ends below a root that hooked later
    while True:
        up = f[f]
        if np.array_equal(up, f):
            break
        f = up
    first = f == ids
    first[blocked] = False
    comp = np.cumsum(first, dtype=np.int64)
    comp -= 1
    comp = comp[f]
    comp[blocked] = -1
    return comp


def component_weights(G: Graph, comp: np.ndarray) -> list[int]:
    """Total weight per component ID; exact 64-bit integer sums."""
    sums = np.zeros(int(comp.max(initial=-1)) + 2, dtype=np.int64)
    np.add.at(sums, comp + 1, G.weight_array)
    return sums[1:].tolist()


def is_connected(G: Graph) -> bool:
    if G.n == 0:
        return True
    return not connected_components(G).any()


def check_beta(beta) -> Fraction:
    """Beta as a Fraction; raises BadBeta unless 1/2 < beta < 1.

    The pipeline's balance argument needs beta > 1/2 (at beta = 0 its
    repair loop cannot converge), and from 1 on the empty set is
    trivially balanced.
    """
    beta = Fraction(beta)
    if not Fraction(1, 2) < beta < 1:
        raise BadBeta(f"beta must lie strictly between 1/2 and 1, got {beta}")
    return beta


@dataclass
class VerifyReport:
    """Outcome of checking a vertex set against the balance contract."""

    separator_size: int
    total_weight: int
    component_weights: list[int]
    beta: Fraction
    passed: bool
    # component ID per vertex of G, -1 on S, as connected_components gives it
    components: np.ndarray = field(repr=False, compare=False)

    @property
    def max_component_weight(self) -> int:
        return max(self.component_weights, default=0)

    @property
    def max_fraction(self) -> float:
        if self.total_weight == 0:
            return 0.0
        return self.max_component_weight / self.total_weight

    def heaviest(self) -> list[int]:
        """The vertices of the heaviest component of G - S, ascending; [] if
        G - S is empty. Ties go to the lowest component ID, i.e. to the
        component holding the lowest vertex."""
        if not self.component_weights:
            return []
        best = self.component_weights.index(self.max_component_weight)
        return (self.components == best).nonzero()[0].tolist()


def verify_separator(G: Graph, S, beta=Fraction(2, 3)) -> VerifyReport:
    """Check that every component of G - S weighs at most beta * W.

    Separator vertices' weight counts toward W but toward no component.
    ``connected_components`` raises BadVertexId for a vertex of S
    outside [0, n).
    """
    beta = Fraction(beta)
    sset = set(S)
    comp = connected_components(G, removed=sset)
    comp_w = component_weights(G, comp)
    W = G.total_weight
    max_w = max(comp_w, default=0)
    passed = max_w * beta.denominator <= W * beta.numerator
    return VerifyReport(
        separator_size=len(sset),
        total_weight=W,
        component_weights=comp_w,
        beta=beta,
        passed=passed,
        components=comp,
    )

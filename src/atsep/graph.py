"""Core graph model: weighted simple graphs, components, separator verification.

Vertex IDs are dense 0-based integers. Weights are non-negative 64-bit
integers so that all conservation checks are exact equalities.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
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

    The adjacency is a frozen CSR: the neighbours of v are
    ``indices[indptr[v]:indptr[v + 1]]``, in the order the edges were
    given. ``weights`` is a list of Python ints; ``weight_array`` and
    ``total_weight`` are fixed at construction. The constructor does not
    validate; ``build_graph`` does.
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

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """Neighbour lists in CSR order, derived on first use for list consumers."""
        flat = self.indices.tolist()
        ends = self.indptr.tolist()
        return [flat[a:b] for a, b in zip(ends, ends[1:])]

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
    # sort by (source, position): the keys are distinct, so any sort is stable
    order = np.argsort(src * (2 * m) + np.arange(2 * m, dtype=np.int64))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n=n, indptr=indptr, indices=dst[order], weights=weights)


@dataclass
class EdgeSet:
    """A set of undirected edges, stored as (u, v) pairs with u < v."""

    edges: list[tuple[int, int]]

    def endpoints(self) -> list[int]:
        """Sorted list of distinct endpoint vertex IDs."""
        seen = set()
        for u, v in self.edges:
            seen.add(u)
            seen.add(v)
        return sorted(seen)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass
class SpanningTree:
    """Rooted spanning tree in parent-pointer form; parent[root] == root.

    ``compute_spanning_tree`` gives ``parent`` as an int64 array; any
    sequence of vertex IDs works. The pipeline reads nothing else: depths
    and nearest ancestors come from pointer jumps over ``parent``.
    """

    root: int
    parent: np.ndarray

    @property
    def n(self) -> int:
        return len(self.parent)

    def tree_edges(self) -> list[tuple[int, int]]:
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.flatnonzero(parent != np.arange(len(parent)))
        up = parent[child]
        return list(zip(np.minimum(child, up).tolist(), np.maximum(child, up).tolist()))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p != v:
                adj[v].append(p)
                adj[p].append(v)
        return adj


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


# below this vertex count, plain BFS beats the sparse-matrix setup cost
_SCIPY_MIN_N = 2048


def connected_components(G: Graph, removed=None) -> list[int]:
    """Component ID per vertex; removed vertices (if given) get ID -1.

    IDs are assigned in order of each component's lowest vertex.
    """
    if G.n >= _SCIPY_MIN_N:
        return _connected_components_sparse(G, removed)
    comp = [-1] * G.n
    blocked = removed if removed is not None else frozenset()
    next_id = 0
    queue = deque()
    for s in range(G.n):
        if comp[s] != -1 or s in blocked:
            continue
        comp[s] = next_id
        queue.append(s)
        while queue:
            u = queue.popleft()
            for v in G.adjacency[u]:
                if comp[v] == -1 and v not in blocked:
                    comp[v] = next_id
                    queue.append(v)
        next_id += 1
    return comp


def _connected_components_sparse(G: Graph, removed=None) -> list[int]:
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components as _scipy_cc

    n = G.n
    indptr, indices = G.indptr, G.indices
    keep = np.ones(n, dtype=bool)
    if removed:
        keep[list(removed)] = False
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        mask = keep[src] & keep[indices]
        src, dst = src[mask], indices[mask]
        A = csr_array(
            (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)
        )
    else:
        A = csr_array(
            (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n)
        )
    _, labels = _scipy_cc(A, directed=False)
    comp = np.full(n, -1, dtype=np.int64)
    kept_labels = labels[keep]
    uniq, first, inv = np.unique(kept_labels, return_index=True, return_inverse=True)
    # renumber so that IDs follow each component's lowest vertex
    renum = np.empty(len(uniq), dtype=np.int64)
    renum[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    comp[keep] = renum[inv]
    return comp.tolist()


def component_weights(G: Graph, comp: list[int]) -> list[int]:
    """Total weight per component ID; exact 64-bit integer sums."""
    ncomp = max(comp, default=-1) + 1
    if G.n >= _SCIPY_MIN_N:
        sums = np.zeros(ncomp + 1, dtype=np.int64)
        np.add.at(sums, np.asarray(comp) + 1, G.weight_array)
        return sums[1:].tolist()
    comp_w = [0] * ncomp
    for v in range(G.n):
        if comp[v] >= 0:
            comp_w[comp[v]] += G.weights[v]
    return comp_w


def heaviest_component(G: Graph, S) -> tuple[list[int], int]:
    """(vertices, weight) of the heaviest component of G - S; ([], 0) if none.

    Ties go to the lowest component ID, i.e. to the component holding the
    lowest vertex.
    """
    comp = connected_components(G, removed=S)
    comp_w = component_weights(G, comp)
    if not comp_w:
        return [], 0
    best = comp_w.index(max(comp_w))
    return [v for v, c in enumerate(comp) if c == best], comp_w[best]


def is_connected(G: Graph) -> bool:
    if G.n == 0:
        return True
    return max(connected_components(G)) == 0


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
    components: list[int] = field(default_factory=list, repr=False, compare=False)

    @property
    def max_component_weight(self) -> int:
        return max(self.component_weights, default=0)

    @property
    def max_fraction(self) -> float:
        if self.total_weight == 0:
            return 0.0
        return self.max_component_weight / self.total_weight


def verify_separator(G: Graph, S, beta=Fraction(2, 3)) -> VerifyReport:
    """Check that every component of G - S weighs at most beta * W.

    Separator vertices' weight counts toward W but toward no component.
    """
    beta = Fraction(beta)
    sset = set(S)
    for v in sset:
        if not (0 <= v < G.n):
            raise BadVertexId(f"separator vertex {v} out of range")
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

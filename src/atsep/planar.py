"""Vertex-weighted planar separator in the Lipton-Tarjan style.

Works on any connected planar graph, along one path: a BFS from the
root (which also rejects a disconnected graph) and one planarity test of
the graph's kernel (pendant trees peeled off, degree-2 chains
suppressed; planar exactly when the graph is) gate the call; then pick
a cheap pair of BFS levels around the weighted median, and if the
middle band still holds a heavy component, shrink it with a
fundamental-cycle separator on the triangulated band. networkx serves
only the gate's planarity test. The band is embedded by this module's
port of the left-right planarity test, which gives the same rotation
system as networkx's as one record of flat half-edge lists
(``_HalfEdges``); that record is triangulated in place and scanned
here. Each separator formed is verified once, exactly against beta * W,
and the report handed on: a greedy fallback keeps the balance contract
unconditional even for degenerate weight profiles (e.g. one vertex
holding most of the weight), and a final pruning pass reads the last
report to drop separator vertices that balance does not need.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import networkx as nx
import numpy as np

from .errors import NotPlanar, ZeroTotalWeight
from .graph import (
    Graph,
    VerifyReport,
    _bfs_layers,
    _frontier_neighbors,
    _unique,
    check_beta,
    verify_separator,
)


def bfs_levels(G: Graph, root: int):
    """BFS distance per vertex plus per-level vertex lists and weights.

    The levels are the layers of ``graph._bfs_layers``, each in ascending
    ID order. Raises BadVertexId for a root outside [0, n) and
    Disconnected if some vertex is unreachable.
    """
    parent = np.empty(G.n, dtype=np.int64)
    levels = [layer if isinstance(layer, list) else layer.tolist()
              for layer in _bfs_layers(G, root, parent)]
    level = [0] * G.n
    for d, layer in enumerate(levels):
        for v in layer:
            level[v] = d
    level_weights = [sum(map(G.weights.__getitem__, layer)) for layer in levels]
    return level, levels, level_weights


@dataclass
class LTSeparator:
    vertices: set[int]
    level_info: dict
    cycle_info: set[int] | None = None
    fallback_steps: int = 0


def _greedy_balance(G: Graph, S: set[int], beta: Fraction,
                    report: VerifyReport) -> tuple[int, VerifyReport]:
    """Add heaviest vertices of offending components until balanced.

    ``report`` is ``verify_separator(G, S, beta)`` as the caller found it;
    each step verifies the grown S once. Returns the number of steps and
    the report on the final S.
    """
    steps = 0
    while not report.passed:
        pick = max(report.heaviest(), key=lambda v: (G.weights[v], -v))
        S.add(pick)
        steps += 1
        if steps > G.n:
            raise AssertionError("greedy balance failed to terminate")
        report = verify_separator(G, S, beta)
    return steps, report


def _band_cycle_shrink(G: Graph, heavy: list[int], level, l0: int):
    """Shrink the heavy middle-band component with a fundamental cycle.

    Builds the component plus a zero-weight virtual root standing for the
    contracted levels above it (a minor of G, hence planar), embeds it
    with the left-right planarity test (``_band_rotation``), triangulates
    that rotation system (``_triangulate``), and scans fundamental
    cycles for one whose two sides both fit in 2/3 of the band weight
    (``_balanced_fundamental_cycle``). The band graph is connected: the
    heavy component lies beyond level l0 (the components on the root's
    side of l0 weigh less than W/2), so each of its vertices has a BFS
    path back to level l0 + 1, whose vertices all touch the virtual root.
    Returns the cycle vertex set (without the virtual root) or None if
    the band has fewer than 3 nodes or no cycle balances.
    """
    he = _band_rotation(G, heavy, level, l0)
    if he is None:
        return None
    _triangulate(he)
    return _balanced_fundamental_cycle(he, [0, *map(G.weights.__getitem__, heavy)])


@dataclass
class _HalfEdges:
    """A rotation system as one record over half-edges.

    Node i is ``label[i]``. Half-edge h runs from node ``tail[h]`` to node
    ``head[h]`` and its twin is ``h ^ 1``, so edge k is the pair
    (2k, 2k + 1). ``rnext[h]`` and ``rprev[h]`` are the half-edges just
    clockwise and counter-clockwise of h in the ring around ``tail[h]``.
    ``start[v]`` is v's first half-edge, the one to v's leftmost neighbour
    as ``_lr_rotation`` places it (the neighbour networkx's
    ``PlanarEmbedding.neighbors_cw_order`` yields first), or -1 if v has
    none. The face on the right of h goes on with ``rprev[h ^ 1]``
    (networkx's ``next_face_half_edge``). The fields are plain int lists,
    as the walks over them are sequential.
    """

    label: list[int]
    tail: list[int]
    head: list[int]
    rnext: list[int]
    rprev: list[int]
    start: list[int]


def _band_rotation(G: Graph, heavy: list[int], level, l0: int) -> _HalfEdges | None:
    """Rotation system of the band graph (heavy plus the virtual root -1),
    or None if it has fewer than 3 nodes or is not planar.

    The nodes are the root, then ``heavy`` in order. An edge to a level
    <= l0 stands for one to the root, and a repeat is dropped. Each node's
    neighbours after it in node order are listed as the CSR rows first
    reach them (heavy in order, each row in order): the graph networkx
    would have built with ``add_edges_from``, so the embedding is the one
    its planarity test gave.
    """
    k = len(heavy)
    if k < 2:
        return None
    ids = np.asarray(heavy, dtype=np.int64)
    # each vertex's band node: the root at a level <= l0, -1 off the band
    at = np.where(np.asarray(level) <= l0, 0, -1)
    at[ids] = np.arange(1, k + 1)
    nb, counts = _frontier_neighbors(G.indptr, G.indices, ids)
    owner = np.repeat(np.arange(1, k + 1), counts)
    j = at[nb]
    up = (j > owner).nonzero()[0]
    higher = j[up].tolist()
    cut = np.searchsorted(owner[up], np.arange(1, k + 2)).tolist()
    adj = [_unique(owner[(j == 0).nonzero()[0]]).tolist()]
    adj += [higher[lo:hi] for lo, hi in zip(cut, cut[1:])]
    return _lr_rotation([-1, *heavy], adj)


@dataclass
class _LRPartition:
    """What the left-right test leaves for the embedding of a planar graph.

    The DFS orientation: its ``roots``, each vertex's ``parent_edge`` (-1
    at a root) and oriented edge e from ``src[e]`` to ``dst[e]``, edges
    numbered in the order the orientation meets them; each edge's nesting
    ``depth``; and the LR partition as each edge's ``ref`` (an edge or
    None) and ``side`` (1 or -1) relative to it.
    """

    roots: list[int]
    parent_edge: list[int]
    src: list[int]
    dst: list[int]
    depth: list[int]
    ref: list
    side: list[int]


def _lr_rotation(nodes: list[int], adj: list[Iterable[int]]) -> _HalfEdges | None:
    """Planar rotation system of a simple graph, or None if it is not planar.

    Node i is ``nodes[i]`` and ``adj[i]`` yields its neighbours' indices.
    Only the neighbours after i are read, in the order given, so an edge
    may be listed at its lower end alone. An iterative port of networkx's
    ``LRPlanarity`` (the left-right planarity test, Brandes 2009) that
    gives what ``nx.check_planarity`` gives on the nx.Graph with this node
    order and adjacency order: the same node order, the same clockwise
    ring at every vertex and the same start neighbour. ``_lr_test``
    decides planarity and ``_lr_embedding`` turns its partition into the
    half-edge record.
    """
    lr = _lr_test(adj)
    return None if lr is None else _lr_embedding(nodes, lr)


def _lr_test(adj: list[Iterable[int]]) -> _LRPartition | None:
    """The left-right planarity test on node indices: the partition the
    embedding needs, or None if the graph is not planar.

    ``adj`` is as for ``_lr_rotation``. The phases keep networkx's names:
    ``dfs_orientation`` (lowpoints and nesting depths) and
    ``dfs_testing`` (``add_constraints``, ``remove_back_edges``).
    Oriented edges are numbered in the order the orientation meets them,
    and their lowpoints, references and sides are flat lists. A conflict
    pair is a 4-slot list ``[left low, left high, right low, right high]``
    of edges or None, and pairs are compared by identity, as networkx
    compares its ``ConflictPair`` objects.
    """
    n = len(adj)
    # LRPlanarity first copies the graph edge by edge, which lists each
    # vertex's neighbours earlier in node order first, in node order
    nbrs: list[list[int]] = [[] for _ in range(n)]
    m = 0
    for x, row in enumerate(adj):
        mine = nbrs[x]
        for y in row:
            if y > x:
                mine.append(y)
                nbrs[y].append(x)
                m += 1
    if n > 2 and m > 3 * n - 6:
        return None

    # dfs_orientation: orient the edges by DFS, each edge once; lowpoints
    # and nesting depth
    height = [-1] * n
    parent_edge = [-1] * n
    src = [0] * m
    dst = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    depth = [0] * m
    count = 0
    roots: list[int] = []
    ind = [0] * n
    pend = [-1] * n  # the tree edge whose subtree a vertex waits on
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            row = nbrs[v]
            i = ind[v]
            ei = pend[v]
            pend[v] = -1
            while i < len(row):
                if ei < 0:
                    w = row[i]
                    hw = height[w]
                    # a finished descendant or the parent oriented vw already
                    if hw > hv or (e >= 0 and src[e] == w):
                        i += 1
                        continue
                    ei = count
                    count += 1
                    src[ei] = v
                    dst[ei] = w
                    lowpt[ei] = lowpt2[ei] = hv
                    if hw < 0:  # tree edge
                        parent_edge[w] = ei
                        height[w] = hv + 1
                        ind[v] = i
                        pend[v] = ei
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[ei] = hw  # back edge
                lo, lo2 = lowpt[ei], lowpt2[ei]
                depth[ei] = 2 * lo + (lo2 < hv)  # odd when chordal
                if e >= 0:
                    le = lowpt[e]
                    if lo < le:
                        lowpt2[e] = min(le, lo2)
                        lowpt[e] = lo
                    elif lo > le:
                        lowpt2[e] = min(lowpt2[e], lo)
                    else:
                        lowpt2[e] = min(lowpt2[e], lo2)
                ei = -1
                i += 1

    # dfs_testing: the LR partition, as references between return edges
    ref: list = [None] * m
    side = [1] * m
    lowpt_edge: list = [None] * m
    stack_bottom: list = [None] * m
    S: list[list] = []

    def conflicting(high, b) -> bool:
        """Interval.conflicting: the interval whose high end is ``high``
        conflicts with edge b."""
        return high is not None and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        P = [None, None, None, None]
        # merge return edges of e_i into P.right
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:  # topmost interval
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is stack_bottom[ei]:
                break
        # merge conflicting return edges of e_1, ..., e_{i-1} into P.left
        while True:
            T = S[-1]
            if not (conflicting(T[1], ei) or conflicting(T[3], ei)):
                break
            Q = S.pop()
            if conflicting(Q[3], ei):
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[3], ei):
                return False
            # merge the interval below lowpt(e_i) into P.right
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:  # topmost interval
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if any(x is not None for x in P):
            S.append(P)
        return True

    def lowest(P) -> int:
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e: int) -> None:
        u = src[e]
        hu = height[u]
        # trim back edges ending at parent u: drop whole conflict pairs
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:  # one more conflict pair to consider
            P = S[-1]
            while P[1] is not None and dst[P[1]] == u:  # trim left interval
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and dst[P[3]] == u:  # trim right interval
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        # side of e is side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    ordered, out_at = _out_by_depth(src, depth, n)
    ind = out_at[:-1]
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            i = ind[v]
            end = out_at[v + 1]
            ei = pend[v]
            pend[v] = -1
            while i < end:
                if ei < 0:
                    ei = ordered[i]
                    stack_bottom[ei] = S[-1] if S else None
                    if parent_edge[dst[ei]] == ei:  # tree edge
                        ind[v] = i
                        pend[v] = ei
                        stack.append(v)
                        stack.append(dst[ei])
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append([None, None, ei, ei])
                # integrate new return edges
                if lowpt[ei] < hv:
                    if i == out_at[v]:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                ei = -1
                i += 1
            else:
                if e >= 0:
                    remove_back_edges(e)

    return _LRPartition(roots, parent_edge, src, dst, depth, ref, side)


def _out_by_depth(src: list[int], depth: list[int], n: int) -> tuple[list[int], list[int]]:
    """Each vertex's outgoing edges by depth, ties in edge order.

    One flat list of edges and n + 1 offsets: v's edges are
    ``ordered[out_at[v]:out_at[v + 1]]``. One stable sort over all edges
    stands for networkx's per-vertex ``sorted`` by nesting depth.
    """
    tails = np.array(src, dtype=np.int64)
    order = np.lexsort((np.array(depth, dtype=np.int64), tails))
    out_at = np.searchsorted(tails[order], np.arange(n + 1))
    return order.tolist(), out_at.tolist()


def _lr_embedding(nodes: list[int], lr: _LRPartition) -> _HalfEdges:
    """The half-edge record of a partition from ``_lr_test``.

    networkx's ``sign`` and ``dfs_embedding``: each edge's side is
    resolved against its reference into an absolute one, each vertex's
    outgoing edges in signed-depth order make its first ring, and then a
    DFS puts each edge's reverse half-edge into its target's ring: a tree
    edge's as the target's new leftmost, a back edge's beside the
    target's right or left reference, by its side. Oriented edge e is the
    half-edge 2e and its reverse 2e + 1. It uses ``lr`` up: references are
    cleared and sides and depths signed in place.
    """
    src, dst, depth, ref, side = lr.src, lr.dst, lr.depth, lr.ref, lr.side
    parent_edge = lr.parent_edge
    n = len(nodes)

    # sign: resolve each side relative to its reference into an absolute
    # one; a resolved edge drops its reference, so the order is immaterial
    for e in range(len(src)):
        chain = []
        f = e
        while ref[f] is not None:
            chain.append(f)
            nxt = ref[f]
            ref[f] = None
            f = nxt
        s = side[f]
        for f in reversed(chain):
            s = side[f] = side[f] * s
        depth[e] *= s

    # dfs_embedding
    ordered, out_at = _out_by_depth(src, depth, n)
    count = 2 * len(src)
    tail = [0] * count
    tail[::2] = src
    tail[1::2] = dst
    head = [0] * count
    head[::2] = dst
    head[1::2] = src
    rnext = [0] * count
    rprev = [0] * count
    first = [-1] * n
    for v in range(n):
        lo, hi = out_at[v], out_at[v + 1]
        if lo < hi:
            prv = 2 * ordered[hi - 1]
            for e in ordered[lo:hi]:
                h = 2 * e
                rnext[prv] = h
                rprev[h] = prv
                prv = h
            first[v] = 2 * ordered[lo]
    # a vertex's left and right references are half-edges out of it
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = out_at[:-1]
    for root in lr.roots:
        stack = [root]
        while stack:
            v = stack.pop()
            i = ind[v]
            end = out_at[v + 1]
            while i < end:
                ei = ordered[i]
                i += 1
                w = dst[ei]
                t = 2 * ei + 1  # w -> v
                if parent_edge[w] == ei:
                    # add_half_edge_first(w, v): counter-clockwise of w's
                    # leftmost half-edge, and the new leftmost
                    f = first[w]
                    if f < 0:
                        rnext[t] = rprev[t] = t
                    else:
                        prv = rprev[f]
                        rprev[f] = t
                        rprev[t] = prv
                        rnext[prv] = t
                        rnext[t] = f
                    first[w] = t
                    left_ref[v] = right_ref[v] = 2 * ei
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:  # clockwise after w's right reference
                    c = right_ref[w]
                    nxt = rnext[c]
                    rnext[c] = t
                    rnext[t] = nxt
                    rprev[nxt] = t
                    rprev[t] = c
                else:  # counter-clockwise before w's left reference
                    c = left_ref[w]
                    prv = rprev[c]
                    rprev[c] = t
                    rprev[t] = prv
                    rnext[prv] = t
                    rnext[t] = c
                    if first[w] == c:
                        first[w] = t
                    left_ref[w] = t
    return _HalfEdges(label=list(nodes), tail=tail, head=head, rnext=rnext, rprev=rprev,
                      start=first)


def _triangulate(he: _HalfEdges) -> None:
    """Triangulate a connected rotation system of at least 3 vertices in place.

    A port of networkx's ``triangulate_embedding(emb, fully_triangulate=True)``
    that adds the same edges at the same places in the same order, each
    as a new twin pair. First a walk around every face, started at each
    vertex's half-edges in its live clockwise order (so it sees the edges
    added on the way), links the two neighbours of a vertex met twice on
    one face, which makes the graph 2-connected. Then each face so found
    is fanned into triangles, skipping a chord that is already an edge.
    """
    tail, head, rnext, rprev, start = he.tail, he.head, he.rnext, he.rprev, he.start
    n = len(start)

    def chord(a: int, b: int) -> int:
        """Add the edge across the face corner a, b (b follows a on the
        face): from tail[a] to head[b], clockwise of a around tail[a] and
        counter-clockwise of b's twin around head[b], where it also takes
        over as start if b's twin was (networkx's ``add_half_edge`` with
        ``ccw=`` and ``cw=`` the corner's middle node). Returns the new
        half-edge out of tail[a]."""
        p = len(head)
        u, w = tail[a], head[b]
        back = b ^ 1
        nxt, prv = rnext[a], rprev[back]
        rnext[a] = rprev[nxt] = p
        rprev[back] = rnext[prv] = p + 1
        tail.extend((u, w))
        head.extend((w, u))
        rnext.extend((nxt, back))
        rprev.extend((a, prv))
        if start[w] == back:
            start[w] = p + 1
        return p

    # make_bi_connected: the half-edges a chord adds are on the face being
    # walked, so they are born visited
    visited = bytearray(len(head))
    mark = [-1] * n
    faces: list[int] = []
    for v in range(n):
        first = h = start[v]
        while True:
            if not visited[h]:
                visited[h] = 1
                mark[v] = h
                faces.append(h)
                a, b = h, rprev[h ^ 1]
                while b != h:
                    x = head[a]
                    if mark[x] == h:
                        a = chord(a, b)
                        visited += b"\1\1"
                        visited[b] = 1
                    else:
                        mark[x] = h
                        a = b
                    b = rprev[a ^ 1]
                    visited[a] = 1
            h = rnext[h]
            if h == first:
                break

    # triangulate_face
    edges = {u * n + w for u, w in zip(tail, head) if u < w}
    for a in faces:
        b = rprev[a ^ 1]
        c = rprev[b ^ 1]
        while tail[a] != head[c]:
            u, w = tail[a], head[b]
            key = u * n + w if u < w else w * n + u
            if key in edges:
                a = b
            else:
                edges.add(key)
                a = chord(a, b)
            b = c
            c = rprev[b ^ 1]


def _balanced_fundamental_cycle(he: _HalfEdges, weight: list[int]):
    """Labels of a fundamental cycle of a triangulation leaving <= 2/3 of
    the weight on each side.

    ``weight[i]`` is node i's. Labels must ascend with node index (the
    band's are the virtual root -1, then ``heavy`` ascending), so index
    order is label order. The BFS tree grows from node 0 (each node's
    neighbours in ascending order), and the non-tree edges are tried in
    ascending (lower end, higher end) order; the result omits node 0,
    and is None if no fundamental cycle balances.

    Side weights come from the tree's contour, the walk around the BFS
    tree that passes each half-edge once: it goes along a tree half-edge
    and on around its head, but only steps past a non-tree one and goes
    on around its tail. The walk crosses each non-tree edge twice and no
    tree edge, so it is an Euler tour of the dual spanning tree, and
    between the two crossings of a non-tree edge it visits exactly the
    corners on one side of that edge's cycle. Each node puts its weight
    on one of its corners (a node off a cycle has all of them on one
    side), so one prefix sum along the walk weighs each side, and the
    scan costs O(cycle length) per candidate.
    """
    n = len(weight)
    total = sum(weight)
    head = np.array(he.head)
    twin = np.arange(len(head)) ^ 1
    tail = head[twin]

    # the half-edges by (tail, head): each node's neighbours in ascending
    # order, and the non-tree edges in scan order
    by_ends = np.argsort(tail * n + head)
    t, w = tail[by_ends], head[by_ends]
    row_at = np.searchsorted(t, np.arange(n + 1)).tolist()
    nbr = w.tolist()

    # BFS tree of the triangulation from node 0
    parent = [-1] * n
    parent[0] = 0
    queue = [0]
    for x in queue:
        for y in nbr[row_at[x]:row_at[x + 1]]:
            if parent[y] < 0:
                parent[y] = x
                queue.append(y)
    par = np.array(parent)
    tree = (par[tail] == head) | (par[head] == tail)
    nontree = by_ends[(t < w) & ~tree[by_ends]].tolist()

    # the contour: the step at half-edge h visits the corner clockwise
    # after h around its tail, or after its twin around its head if h is
    # a tree half-edge; at[h] is that step's place in the walk
    rnext = np.array(he.rnext)
    step = np.where(tree, rnext[twin], rnext).tolist()
    at = [0] * len(step)
    h = 0
    for i in range(len(step)):
        at[h] = i
        h = step[h]
    # each node's weight sits on the corner clockwise after its start
    # (int64 sums are exact: a graph's total weight is below 2**63)
    start = np.array(he.start)
    load = [at[h] for h in (start ^ tree[start]).tolist()]
    spot = np.zeros(len(step) + 1, dtype=np.int64)
    spot[np.array(load) + 1] = weight
    before = np.cumsum(spot)  # weight placed before each step

    for h in nontree:
        lo, hi = sorted((at[h], at[h ^ 1]))
        cycle = _tree_path(parent, he.tail[h], he.head[h])
        cycle_w = 0
        inside = int(before[hi] - before[lo])
        for x in cycle:
            cycle_w += weight[x]
            if lo <= load[x] < hi:
                inside -= weight[x]
        outside = total - inside - cycle_w
        # 2/3, not beta: the cycle lemma only promises a cycle leaving at
        # most 2/3 of the band on each side. For a smaller beta the
        # caller's greedy pass closes the gap.
        if 3 * inside <= 2 * total and 3 * outside <= 2 * total:
            label = he.label
            return {label[x] for x in cycle if x}
    return None


def _tree_path(parent, u, v):
    """Vertices on the tree path from u to v (inclusive); parent[root] == root."""
    seen = set()
    x = u
    while True:
        seen.add(x)
        if parent[x] == x:
            break
        x = parent[x]
    path_v = []
    y = v
    while y not in seen:
        path_v.append(y)
        y = parent[y]
    path_u = []
    x = u
    while x != y:
        path_u.append(x)
        x = parent[x]
    return path_u + [y] + path_v


def _planarity_kernel(G: Graph) -> dict[int, set[int]]:
    """Adjacency sets of G's kernel, which is planar exactly when G is.

    Vertices of degree <= 1 are peeled off and each vertex of degree 2 is
    suppressed by joining its two neighbours, until neither applies. A
    peeled vertex lies on no cycle and a suppressed one subdivides an
    edge, so by Kuratowski neither step changes planarity. Where the
    joining edge is already there, the parallel copy is dropped, which
    cannot change it either. A tree or a cycle leaves nothing.

    Every maximal chain of degree-2 vertices goes first, in one array
    pass: a half-edge into a degree-2 vertex points at the half-edge that
    leaves it by its other edge, and squaring the pointers takes each
    half-edge out of a vertex of another degree to its chain's far end.
    A chain that ends where it starts is dropped, and parallel chains
    give one edge, as suppressing them one by one would. Only what is
    left goes through the loop, so pendant trees and the cascades that
    dropped copies set off are handled there.
    """
    indptr, indices = G.indptr, G.indices
    degree = np.diff(indptr)
    tail = np.repeat(np.arange(G.n, dtype=np.int64), degree)
    ptr = np.arange(len(indices), dtype=np.int64)
    into = (degree[indices] == 2).nonzero()[0]
    row = indptr[indices[into]]
    ptr[into] = row + (indices[row] == tail[into])  # the row's other entry
    out = (degree[tail] != 2).nonzero()[0]
    far = ptr[out]
    # chains of degree-2 vertices alone (cycles) have no way out and are
    # never reached, so this ends after log2 of the longest chain rounds
    while (degree[indices[far]] == 2).any():
        ptr = ptr[ptr]
        far = ptr[out]
    near, reach = tail[out], indices[far]
    edge = (near != reach).nonzero()[0]  # loops go
    near, reach = near[edge], reach[edge]
    # ``near`` ascends, so each kept vertex's ends are one run; the sets
    # merge parallel chains
    kept = (degree != 2).nonzero()[0]
    cut = np.searchsorted(near, kept).tolist()
    cut.append(len(near))
    ends = reach.tolist()
    nbrs = {v: set(ends[cut[i]:cut[i + 1]]) for i, v in enumerate(kept.tolist())}
    stack = [v for v, a in nbrs.items() if len(a) <= 2]
    while stack:
        v = stack.pop()
        a = nbrs.get(v)
        if a is None or len(a) > 2:
            continue
        del nbrs[v]
        for u in a:
            nbrs[u].discard(v)
        if len(a) == 2:
            x, y = a
            if y not in nbrs[x]:
                nbrs[x].add(y)
                nbrs[y].add(x)
                continue
        stack.extend(a)
    return nbrs


def lt_separator(G: Graph, beta=Fraction(2, 3), root: int = 0) -> LTSeparator:
    """Balanced vertex separator of a connected planar graph.

    Target size is O(sqrt(n)); balance (max component weight <= beta * W)
    is guaranteed by construction plus an exactly checked fallback. Raises
    BadBeta unless 1/2 < beta < 1, then Disconnected before NotPlanar;
    planarity is tested on G's kernel, whose embedding is not used.
    """
    beta = check_beta(beta)
    W = G.total_weight
    if W == 0:
        raise ZeroTotalWeight("all vertex weights are zero")
    level, levels, level_weights = bfs_levels(G, root)  # raises Disconnected
    kernel = _planarity_kernel(G)
    H = nx.Graph()
    H.add_nodes_from(kernel)
    H.add_edges_from((u, v) for u, a in kernel.items() for v in a if u < v)
    ok, emb = nx.check_planarity(H, counterexample=False)
    if not ok:
        raise NotPlanar(f"graph with {G.n} vertices and {G.m} edges is not planar")
    # networkx graphs with cached views are reference cycles: empty them so
    # their dicts go now, not at the next full collection
    H.clear()
    emb.clear()

    if G.n <= 4:
        S: set[int] = set()
        steps, _ = _greedy_balance(G, S, beta, verify_separator(G, S, beta))
        return LTSeparator(vertices=S, level_info={}, fallback_steps=steps)

    cum = 0
    l1 = len(levels) - 1
    for l, lw in enumerate(level_weights):
        cum += lw
        if 2 * cum >= W:
            l1 = l
            break
    t = max(1, isqrt(G.n))

    def cost_below(l):
        return len(levels[l]) + 2 * (l1 - l)

    def cost_above(l):
        return len(levels[l]) + 2 * (l - l1 - 1)

    lo_window = range(max(0, l1 - t), l1 + 1)
    l0 = min(lo_window, key=lambda l: (cost_below(l), l))
    hi_window = range(l1 + 1, min(len(levels) - 1, l1 + t) + 1)
    l2 = min(hi_window, key=lambda l: (cost_above(l), l)) if hi_window else None

    S = set(levels[l0])
    if l2 is not None:
        S |= set(levels[l2])
    info = {"l0": l0, "l1": l1, "l2": l2, "num_levels": len(levels)}

    cycle = None
    report = verify_separator(G, S, beta)
    if not report.passed:
        cycle = _band_cycle_shrink(G, report.heaviest(), level, l0)
        if cycle is not None:
            S |= cycle
            report = verify_separator(G, S, beta)

    steps, report = _greedy_balance(G, S, beta, report)
    _prune_redundant(G, S, report)
    return LTSeparator(vertices=S, level_info=info, cycle_info=cycle, fallback_steps=steps)


def _prune_redundant(G: Graph, S: set[int], report: VerifyReport) -> None:
    """Drop separator vertices whose removal keeps the balance verified.

    Level-based separators carry whole BFS levels even when a few cut
    vertices suffice; this pass trims them. Ascending-ID scan keeps the
    result deterministic. Dropping v from a balanced S changes only the
    component v joins, so the component pass of ``report``, the caller's
    ``verify_separator(G, S, beta)``, plus a union-find over the
    components decides every vertex with no search of its own: v goes
    iff v merged with its neighbours' components outside S still weighs
    at most beta * W.
    """
    if not report.passed:
        raise AssertionError("pruning needs a balanced separator")
    W, beta = report.total_weight, report.beta
    order = sorted(S)
    comp = memoryview(report.components)  # indexes to Python ints
    # union-find nodes: the components of G - S, then each vertex of S
    weight = list(report.component_weights)
    node = {v: len(weight) + i for i, v in enumerate(order)}
    weight += [G.weights[v] for v in order]
    link = list(range(len(weight)))
    row_at, nbr = memoryview(G.indptr), memoryview(G.indices)

    def find(x):
        while link[x] != x:
            link[x] = link[link[x]]
            x = link[x]
        return x

    for v in order:
        roots = {find(comp[u] if comp[u] >= 0 else node[u])
                 for u in nbr[row_at[v]:row_at[v + 1]] if u not in S}
        merged = G.weights[v] + sum(weight[x] for x in roots)
        if merged * beta.denominator <= W * beta.numerator:
            S.discard(v)
            me = node[v]
            for x in roots:
                link[x] = me
            weight[me] = merged

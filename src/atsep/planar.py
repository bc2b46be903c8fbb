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
system as networkx's, and that plain rotation system is triangulated
and scanned here. A greedy fallback, whose every step checks the
heaviest component of G - S exactly against beta * W, keeps the
balance contract unconditional even for degenerate weight profiles
(e.g. one vertex holding most of the weight); a final pruning pass
drops separator vertices that balance does not need.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import networkx as nx
import numpy as np

from .errors import NotPlanar, ZeroTotalWeight
from .graph import Graph, _bfs_layers, check_beta, heaviest_component, verify_separator


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


def _greedy_balance(G: Graph, S: set[int], beta: Fraction, heaviest) -> int:
    """Add heaviest vertices of offending components until balanced.

    ``heaviest`` is ``heaviest_component(G, S)`` as the caller found it;
    each step searches G - S again.
    """
    W = G.total_weight
    steps = 0
    verts, heavy_w = heaviest
    while heavy_w * beta.denominator > W * beta.numerator:
        pick = max(verts, key=lambda v: (G.weights[v], -v))
        S.add(pick)
        steps += 1
        if steps > G.n:
            raise AssertionError("greedy balance failed to terminate")
        verts, heavy_w = heaviest_component(G, S)
    return steps


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
    rot = _band_rotation(G, heavy, level, l0)
    if rot is None:
        return None
    _triangulate(rot)
    weight = {v: G.weights[v] for v in heavy}
    weight[-1] = 0
    return _balanced_fundamental_cycle(rot, -1, weight)


@dataclass
class _Rotation:
    """A rotation system: each vertex's neighbours in clockwise order.

    ``cw[v][w]`` and ``ccw[v][w]`` are the neighbours after and before w
    around v, ``cw[v]`` is filled in ring order from ``start[v]``, and
    ``start[v]`` is v's leftmost neighbour as ``_lr_rotation`` places it
    (the one networkx's ``PlanarEmbedding.neighbors_cw_order`` yields
    first; a vertex without neighbours has none); ``order`` lists the
    vertices in the embedding's node order. The half-edge (v, w) has on
    its right the face whose next half-edge is (w, ccw[w][v]).
    """

    order: list[int]
    cw: dict[int, dict[int, int]]
    ccw: dict[int, dict[int, int]]
    start: dict[int, int]

    def add_chord(self, a: int, b: int, via: int) -> None:
        """Add the edge a-b across the face corner a -> via -> b.

        b goes just clockwise of via around a, and a just counter-clockwise
        of via around b, where it also takes over as b's start if via was
        (networkx's ``add_half_edge(a, b, ccw=via)`` and
        ``add_half_edge(b, a, cw=via)``).
        """
        cw, ccw = self.cw[a], self.ccw[a]
        nxt = cw[via]
        cw[via] = b
        cw[b] = nxt
        ccw[nxt] = b
        ccw[b] = via
        cw, ccw = self.cw[b], self.ccw[b]
        prv = ccw[via]
        ccw[via] = a
        ccw[a] = prv
        cw[prv] = a
        cw[a] = via
        if self.start[b] == via:
            self.start[b] = a


def _band_rotation(G: Graph, heavy: list[int], level, l0: int) -> _Rotation | None:
    """Rotation system of the band graph (heavy plus the virtual root -1),
    or None if it has fewer than 3 nodes or is not planar.

    The nodes are the root, then ``heavy`` in order. Each node's
    neighbours are listed in the order the CSR rows first reach them
    (heavy in order, each row in order), an edge to a level <= l0 standing
    for one to the root, and a repeat dropped: the graph networkx would
    have built with ``add_edges_from``, so the embedding is the one its
    planarity test gave.
    """
    nodes = [-1, *heavy]
    if len(nodes) < 3:
        return None
    at = {v: i for i, v in enumerate(nodes)}
    row_at, nbr = memoryview(G.indptr), memoryview(G.indices)
    adj: list[dict[int, None]] = [{} for _ in nodes]
    to_root = adj[0]
    for i, u in enumerate(heavy, 1):
        mine = adj[i]
        for v in nbr[row_at[u]:row_at[u + 1]]:
            j = at.get(v)
            if j is not None:
                mine[j] = None
                adj[j][i] = None
            elif level[v] <= l0:
                to_root[i] = None
                mine[0] = None
    return _lr_rotation(nodes, adj)


def _lr_rotation(nodes: list[int], adj: list[Iterable[int]]) -> _Rotation | None:
    """Planar rotation system of a simple graph, or None if it is not planar.

    Node i is ``nodes[i]`` and ``adj[i]`` yields its neighbours' indices,
    each edge once at both ends. An iterative port of networkx's
    ``LRPlanarity`` (the left-right planarity test, Brandes 2009) that
    gives what ``nx.check_planarity`` gives on the nx.Graph with this node
    order and adjacency order: the same node order, the same clockwise
    ring at every vertex and the same start neighbour. Its phases keep
    networkx's names: ``dfs_orientation`` (lowpoints and nesting depths),
    ``dfs_testing`` (``add_constraints``, ``remove_back_edges``), ``sign``
    and ``dfs_embedding``. Oriented edges are numbered in the order the
    orientation meets them, and their lowpoints, references and sides are
    flat lists. A conflict pair is a 4-slot list ``[left low, left high,
    right low, right high]`` of edges or None, and pairs are compared by
    identity, as networkx compares its ``ConflictPair`` objects.
    """
    n = len(nodes)
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

    # dfs_orientation: orient the edges by DFS; lowpoints and nesting depth
    height = [-1] * n
    parent_edge = [-1] * n
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    depth: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
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
                    ei = len(src)
                    src.append(v)
                    dst.append(w)
                    lowpt.append(hv)
                    lowpt2.append(hv)
                    depth.append(0)
                    out[v].append(ei)
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
    nedges = len(src)
    ref: list = [None] * nedges
    side = [1] * nedges
    lowpt_edge: list = [None] * nedges
    stack_bottom: list = [None] * nedges
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

    by_depth = depth.__getitem__
    ordered = [sorted(o, key=by_depth) for o in out]
    ind = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            row = ordered[v]
            i = ind[v]
            ei = pend[v]
            pend[v] = -1
            while i < len(row):
                if ei < 0:
                    ei = row[i]
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
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                ei = -1
                i += 1
            else:
                if e >= 0:
                    remove_back_edges(e)

    # sign: resolve each side relative to its reference into an absolute one
    for v in range(n):
        for e in out[v]:
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

    # dfs_embedding: each vertex's outgoing edges in signed-depth order
    # make its first ring; then each back edge goes into its target's ring
    # beside the target's right or left reference, by its side. The rings
    # hold labels; first[v] is v's leftmost neighbour, the one networkx
    # keeps last in its _succ[v]
    ordered = [sorted(o, key=by_depth) for o in out]
    cw: list[dict[int, int]] = []
    ccw: list[dict[int, int]] = []
    first: list = [None] * n
    for v, row in enumerate(ordered):
        ring = [nodes[dst[e]] for e in row]
        after = ring[1:] + ring[:1]
        cw.append(dict(zip(ring, after)))
        ccw.append(dict(zip(after, ring)))
        if ring:
            first[v] = ring[0]
    left_ref: list = [None] * n
    right_ref: list = [None] * n
    ind = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            x = nodes[v]
            row = ordered[v]
            i = ind[v]
            while i < len(row):
                ei = row[i]
                i += 1
                w = dst[ei]
                ring_cw, ring_ccw = cw[w], ccw[w]
                if parent_edge[w] == ei:
                    # add_half_edge_first(w, v): v goes counter-clockwise
                    # of w's leftmost neighbour and becomes leftmost
                    f = first[w]
                    if f is None:
                        ring_cw[x] = ring_ccw[x] = x
                    else:
                        prv = ring_ccw[f]
                        ring_ccw[f] = x
                        ring_ccw[x] = prv
                        ring_cw[prv] = x
                        ring_cw[x] = f
                    first[w] = x
                    left_ref[v] = right_ref[v] = nodes[w]
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:  # clockwise after w's right reference
                    c = right_ref[w]
                    nxt = ring_cw[c]
                    ring_cw[c] = x
                    ring_cw[x] = nxt
                    ring_ccw[nxt] = x
                    ring_ccw[x] = c
                else:  # counter-clockwise before w's left reference
                    c = left_ref[w]
                    prv = ring_ccw[c]
                    ring_ccw[c] = x
                    ring_ccw[x] = prv
                    ring_cw[prv] = x
                    ring_cw[x] = c
                    if first[w] == c:
                        first[w] = x
                    left_ref[w] = x

    # cw[x] is refilled in ring order from start[x], as callers iterate it
    rot = _Rotation(order=list(nodes), cw={}, ccw={}, start={})
    for v, x in enumerate(nodes):
        f = first[v]
        rot.ccw[x] = ccw[v]
        ring_cw = cw[v]
        if f is None:
            rot.cw[x] = ring_cw
            continue
        rot.start[x] = f
        rot.cw[x] = mine = {}
        y = f
        while True:
            nxt = mine[y] = ring_cw[y]
            y = nxt
            if y == f:
                break
    return rot


def _triangulate(rot: _Rotation) -> None:
    """Triangulate a connected rotation system of at least 3 vertices in place.

    A port of networkx's ``triangulate_embedding(emb, fully_triangulate=True)``
    that adds the same edges at the same places in the same order. First
    a walk around every face, started at each vertex's half-edges in its
    live clockwise order (so it sees the edges added on the way), links
    the two neighbours of a vertex met twice on one face, which makes the
    graph 2-connected. Then each face so found is fanned into triangles,
    skipping a chord that is already an edge.
    """
    cw, ccw, add_chord = rot.cw, rot.ccw, rot.add_chord
    visited: set[tuple[int, int]] = set()
    faces: list[tuple[int, int]] = []
    for v in rot.order:
        first = w = rot.start[v]
        while True:
            if (v, w) not in visited:
                visited.add((v, w))
                faces.append((v, w))
                seen = {v}
                v1, v2, v3 = v, w, ccw[w][v]
                while v2 != v or v3 != w:
                    if v2 in seen:
                        add_chord(v1, v3, v2)
                        visited.add((v2, v3))
                        visited.add((v3, v1))
                        v2 = v1
                    else:
                        seen.add(v2)
                    v1 = v2
                    v2, v3 = v3, ccw[v3][v2]
                    visited.add((v1, v2))
            w = cw[v][w]
            if w == first:
                break
    for v1, v2 in faces:
        v3 = ccw[v2][v1]
        v4 = ccw[v3][v2]
        while v1 != v4:
            if v3 in cw[v1]:
                v1, v2 = v2, v3
            else:
                add_chord(v1, v3, v2)
                v2 = v3
            v3 = v4
            v4 = ccw[v3][v2]


def _balanced_fundamental_cycle(rot: _Rotation, root: int, weight: dict[int, int]):
    """Vertices of a fundamental cycle of a triangulation leaving <= 2/3
    on each side.

    The BFS tree grows from ``root`` (each vertex's neighbours in
    ascending order), and the non-tree edges are tried in ascending
    (lower end, higher end) order; the result omits ``root``, and is None
    if no fundamental cycle balances. Side weights come from dual-tree
    subtree sums: the duals of the non-tree edges form a spanning tree of
    the dual, so each cycle's enclosed faces are exactly one dual subtree
    and the scan costs O(cycle length) per candidate.
    """
    cw, ccw = rot.cw, rot.ccw
    total = sum(weight.values())

    # BFS tree of the triangulation from the root
    parent = {root: root}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in sorted(cw[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)

    # faces; face id per half-edge (u, v), kept as face_of[u][v]
    face_of: dict[int, dict[int, int]] = {u: {} for u in cw}
    nfaces = 0
    for u, ring in cw.items():
        mine = face_of[u]
        for v in ring:
            if v not in mine:
                a, b = u, v
                while b not in face_of[a]:
                    face_of[a][b] = nfaces
                    a, b = b, ccw[b][a]
                nfaces += 1

    # dual spanning tree: one dual edge per non-tree primal edge
    nontree = sorted(
        (u, v) for u, ring in cw.items() for v in ring
        if u < v and parent[u] != v and parent[v] != u
    )
    dual_adj: list[list[int]] = [[] for _ in range(nfaces)]
    for u, v in nontree:
        f1, f2 = face_of[u][v], face_of[v][u]
        dual_adj[f1].append(f2)
        dual_adj[f2].append(f1)

    # each vertex contributes its weight to one incident face; which one
    # does not matter, as a vertex off a cycle has all its faces on one side
    load_face = {x: face_of[x][rot.start[x]] for x in cw}
    subtree = [0] * nfaces
    for x, f in load_face.items():
        subtree[f] += weight[x]

    # Euler intervals and subtree sums of the dual tree
    tin = [-1] * nfaces
    tout = [-1] * nfaces
    dual_parent = [-1] * nfaces
    timer = 0
    stack = [(0, False)]
    dual_parent[0] = 0
    while stack:
        f, done = stack.pop()
        if done:
            tout[f] = timer
            if dual_parent[f] != f:
                subtree[dual_parent[f]] += subtree[f]
            continue
        tin[f] = timer
        timer += 1
        stack.append((f, True))
        for g in dual_adj[f]:
            if dual_parent[g] == -1:
                dual_parent[g] = f
                stack.append((g, False))

    for u, v in nontree:
        f1, f2 = face_of[u][v], face_of[v][u]
        # the dual subtree below edge uv is one side of its cycle; both
        # sides are checked alike, so the dual tree's root face is immaterial
        child = f1 if dual_parent[f2] != f1 else f2
        lo, hi = tin[child], tout[child]
        cycle = _tree_path(parent, u, v)
        cycle_w = 0
        inside = subtree[child]
        for x in cycle:
            cycle_w += weight[x]
            if lo <= tin[load_face[x]] < hi:
                inside -= weight[x]
        outside = total - inside - cycle_w
        # 2/3, not beta: the cycle lemma only promises a cycle leaving at
        # most 2/3 of the band on each side. For a smaller beta the
        # caller's greedy pass closes the gap.
        if 3 * inside <= 2 * total and 3 * outside <= 2 * total:
            out = set(cycle)
            out.discard(root)
            return out
    return None


def _tree_path(parent: dict, u, v):
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
    """
    row_at, nbr = memoryview(G.indptr), memoryview(G.indices)
    nbrs = {v: set(nbr[row_at[v]:row_at[v + 1]]) for v in range(G.n)}
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
        steps = _greedy_balance(G, S, beta, heaviest_component(G, S))
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
    heavy, heavy_w = heaviest_component(G, S)
    if heavy_w * beta.denominator > W * beta.numerator:
        cycle = _band_cycle_shrink(G, heavy, level, l0)
        if cycle is not None:
            S |= cycle
            heavy, heavy_w = heaviest_component(G, S)

    steps = _greedy_balance(G, S, beta, (heavy, heavy_w))
    _prune_redundant(G, S, beta)
    return LTSeparator(vertices=S, level_info=info, cycle_info=cycle, fallback_steps=steps)


def _prune_redundant(G: Graph, S: set[int], beta: Fraction) -> None:
    """Drop separator vertices whose removal keeps the balance verified.

    Level-based separators carry whole BFS levels even when a few cut
    vertices suffice; this pass trims them. Ascending-ID scan keeps the
    result deterministic. Dropping v from a balanced S changes only the
    component v joins, so one verification of S on entry, whose
    component pass the scan reuses, plus a union-find over the components
    decides every vertex: v goes iff v merged with its neighbours'
    components outside S still weighs at most beta * W.
    """
    report = verify_separator(G, S, beta)
    if not report.passed:
        raise AssertionError("pruning needs a balanced separator")
    W = report.total_weight
    order = sorted(S)
    comp = report.components
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

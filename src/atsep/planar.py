"""Vertex-weighted planar separator in the Lipton-Tarjan style.

Works on any connected planar graph: pick a cheap pair of BFS levels
around the weighted median, and if the middle band still holds a heavy
component, shrink it with a fundamental-cycle separator on the
triangulated band. Every returned separator is re-verified; a bounded
greedy fallback keeps the balance contract unconditional even for
degenerate weight profiles (e.g. one vertex holding most of the weight).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import networkx as nx
from networkx.algorithms.planar_drawing import triangulate_embedding

from .errors import Disconnected, NotPlanar, TooSmall, ZeroTotalWeight
from .graph import (
    Graph,
    SpanningTree,
    check_beta,
    connected_components,
    is_connected,
    verify_separator,
)


@dataclass
class RotationSystem:
    """Combinatorial planar embedding: clockwise neighbor order per vertex."""

    n: int
    order: dict[int, list[int]]
    faces: list[list[int]]
    nx_embedding: nx.PlanarEmbedding = field(repr=False, default=None)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.order.values()) // 2

    def euler_ok(self) -> bool:
        """V - E + F = 2 for connected embeddings."""
        return len(self.order) - self.num_edges + len(self.faces) == 2

    def edges(self):
        for u, nbrs in self.order.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)


def _faces_of(embedding: nx.PlanarEmbedding) -> list[list[int]]:
    faces = []
    visited: set[tuple[int, int]] = set()
    for u, v in embedding.edges():
        for he in ((u, v), (v, u)):
            if he not in visited:
                faces.append(embedding.traverse_face(*he, mark_half_edges=visited))
    return faces


def _rotation_from_nx(embedding: nx.PlanarEmbedding, nodes) -> RotationSystem:
    order = {}
    for v in nodes:
        if v in embedding:
            order[v] = list(embedding.neighbors_cw_order(v))
        else:
            order[v] = []
    faces = _faces_of(embedding)
    if not faces:
        faces = [list(nodes)]  # edgeless single vertex: one outer face
    return RotationSystem(n=len(order), order=order, faces=faces, nx_embedding=embedding)


def planar_embed(G: Graph) -> RotationSystem:
    """Compute a combinatorial embedding, or raise NotPlanar."""
    if not is_connected(G):
        raise Disconnected("embedding requires a connected graph")
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    ok, emb = nx.check_planarity(H, counterexample=False)
    if not ok:
        raise NotPlanar(f"graph with {G.n} vertices and {G.m} edges is not planar")
    return RotationSystem(
        n=G.n,
        order={v: (list(emb.neighbors_cw_order(v)) if v in emb else []) for v in range(G.n)},
        faces=_faces_of(emb) or [[v] for v in range(G.n)][:1],
        nx_embedding=emb,
    )


def triangulate(emb: RotationSystem) -> tuple[RotationSystem, list[tuple[int, int]]]:
    """Add edges until every face is a triangle; the graph stays simple.

    Returns the new embedding and the list of synthetic edges added.
    """
    if emb.n < 3:
        raise TooSmall("triangulation needs at least 3 vertices")
    before = {(min(u, v), max(u, v)) for u, v in emb.edges()}
    tri, _outer = triangulate_embedding(emb.nx_embedding, fully_triangulate=True)
    rs = _rotation_from_nx(tri, list(emb.order))
    synthetic = [
        (u, v) for u, v in rs.edges() if (min(u, v), max(u, v)) not in before
    ]
    return rs, synthetic


def bfs_levels(G: Graph, root: int):
    """BFS distance per vertex plus per-level vertex lists and weights."""
    level = [-1] * G.n
    level[root] = 0
    queue = deque([root])
    levels: list[list[int]] = [[root]]
    while queue:
        u = queue.popleft()
        for v in G.adjacency[u]:
            if level[v] == -1:
                level[v] = level[u] + 1
                if level[v] == len(levels):
                    levels.append([])
                levels[level[v]].append(v)
                queue.append(v)
    if any(l == -1 for l in level):
        raise Disconnected("bfs_levels requires a connected graph")
    level_weights = [sum(G.weights[v] for v in lv) for lv in levels]
    return level, levels, level_weights


@dataclass
class LTSeparator:
    vertices: set[int]
    level_info: dict
    cycle_info: set[int] | None = None
    fallback_steps: int = 0


def _heaviest_component(G: Graph, S: set[int]):
    """(component vertex list, weight) of the heaviest component of G - S."""
    comp = connected_components(G, removed=S)
    ncomp = max(comp, default=-1) + 1
    members: list[list[int]] = [[] for _ in range(ncomp)]
    for v in range(G.n):
        if comp[v] >= 0:
            members[comp[v]].append(v)
    best, best_w = [], -1
    for verts in members:
        w = sum(G.weights[v] for v in verts)
        if w > best_w:
            best, best_w = verts, w
    return best, best_w


def _greedy_balance(G: Graph, S: set[int], beta: Fraction) -> int:
    """Add heaviest vertices of offending components until balanced."""
    steps = 0
    while not verify_separator(G, S, beta).passed:
        verts, _ = _heaviest_component(G, S)
        pick = max(verts, key=lambda v: (G.weights[v], -v))
        S.add(pick)
        steps += 1
        if steps > G.n:
            raise AssertionError("greedy balance failed to terminate")
    return steps


def _tree_path(parent: list[int], u: int, v: int) -> list[int]:
    """Vertices on the tree path between u and v (inclusive)."""
    seen = {}
    x = u
    while True:
        seen[x] = True
        if parent[x] == x:
            break
        x = parent[x]
    up_v = []
    y = v
    while y not in seen:
        up_v.append(y)
        y = parent[y]
    up_u = []
    x = u
    while x != y:
        up_u.append(x)
        x = parent[x]
    return up_u + [y] + list(reversed(up_v))


def fundamental_cycle_separator(emb: RotationSystem, T: SpanningTree, weights) -> set[int]:
    """Cycle (tree path + one non-tree edge) that balances the embedded graph.

    Scans non-tree edges in ID order and returns the first cycle whose
    removal leaves every component at weight <= 2/3 of the total; if none
    qualifies, the cycle minimizing the heaviest remainder is returned.
    """
    nodes = sorted(emb.order)
    adj = {v: emb.order[v] for v in nodes}
    total = sum(weights[v] for v in nodes)
    nontree = sorted(
        (u, v) for u, v in emb.edges() if not T.is_tree_edge(u, v)
    )
    if not nontree:
        # the graph is a tree; degenerate, everything on the "cycle"
        return set(nodes)

    def max_comp_weight(cycle: set[int]) -> int:
        best = 0
        seen = set(cycle)
        for s in nodes:
            if s in seen:
                continue
            w = 0
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                w += weights[x]
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            best = max(best, w)
        return best

    best_cycle, best_w = None, None
    for u, v in nontree:
        cycle = set(_tree_path(T.parent, u, v))
        w = max_comp_weight(cycle)
        if 3 * w <= 2 * total:
            return cycle
        if best_w is None or w < best_w:
            best_cycle, best_w = cycle, w
    return best_cycle


def _band_cycle_shrink(G: Graph, S: set[int], heavy: list[int], beta: Fraction, level, l0: int):
    """Shrink the heavy middle-band component with a fundamental cycle.

    Builds the component plus a zero-weight virtual root standing for the
    contracted levels above it (a minor of G, hence planar), triangulates,
    and scans fundamental cycles for one whose two sides both fit in 2/3
    of the band weight. Side weights come from dual-tree subtree sums:
    the duals of the non-tree edges form a spanning tree of the dual, so
    each cycle's enclosed faces are exactly one dual subtree and the scan
    costs O(cycle length) per candidate. Returns the cycle vertex set
    (without the virtual root) or None if no cycle balances.
    """
    hset = set(heavy)
    B = nx.Graph()
    root = -1
    B.add_node(root)
    B.add_nodes_from(heavy)
    for u in heavy:
        for v in G.adjacency[u]:
            if v in hset:
                B.add_edge(u, v)
            elif level[v] <= l0:
                B.add_edge(root, u)
    if B.number_of_nodes() < 3:
        return None
    ok, emb = nx.check_planarity(B, counterexample=False)
    if not ok:
        return None
    tri, _ = triangulate_embedding(emb, fully_triangulate=True)

    weight = {v: G.weights[v] for v in heavy}
    weight[root] = 0
    total = sum(weight.values())

    # BFS tree of the triangulated band from the virtual root
    parent = {root: root}
    depth = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in sorted(tri[x]):
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + 1
                queue.append(y)

    # faces of the triangulation; face id per half-edge
    face_of: dict[tuple[int, int], int] = {}
    visited: set[tuple[int, int]] = set()
    nfaces = 0
    for u, v in tri.edges():
        for he in ((u, v), (v, u)):
            if he not in visited:
                boundary = tri.traverse_face(*he, mark_half_edges=visited)
                k = len(boundary)
                for i in range(k):
                    face_of[(boundary[i], boundary[(i + 1) % k])] = nfaces
                nfaces += 1

    # dual spanning tree: one dual edge per non-tree primal edge
    nontree = sorted(
        (u, v)
        for u, v in tri.edges()
        if parent.get(u) != v and parent.get(v) != u
    )
    dual_adj: list[list[int]] = [[] for _ in range(nfaces)]
    for u, v in nontree:
        f1, f2 = face_of[(u, v)], face_of[(v, u)]
        dual_adj[f1].append(f2)
        dual_adj[f2].append(f1)

    # each vertex contributes its weight to one incident face
    face_load = [0] * nfaces
    for x in tri.nodes:
        nbr = next(iter(tri[x]))
        face_load[face_of[(x, nbr)]] += weight[x]

    # Euler intervals and subtree sums of the dual tree
    tin = [-1] * nfaces
    tout = [-1] * nfaces
    subtree = list(face_load)
    dual_parent = [-1] * nfaces
    timer = 0
    stack = [(0, False)]
    dual_parent[0] = 0
    order = []
    while stack:
        f, done = stack.pop()
        if done:
            tout[f] = timer
            if dual_parent[f] != f:
                subtree[dual_parent[f]] += subtree[f]
            continue
        tin[f] = timer
        timer += 1
        order.append(f)
        stack.append((f, True))
        for g in dual_adj[f]:
            if dual_parent[g] == -1:
                dual_parent[g] = f
                stack.append((g, False))

    def inside_interval(f: int, child: int) -> bool:
        return tin[child] <= tin[f] < tout[child]

    for u, v in nontree:
        f1, f2 = face_of[(u, v)], face_of[(v, u)]
        child = f1 if dual_parent[f2] != f1 else f2
        if dual_parent[child] == child:
            continue  # dual root side; the reverse orientation covers it
        cycle = _tree_path_dict(parent, u, v)
        cycle_w = sum(weight[x] for x in cycle)
        inside = subtree[child]
        for x in cycle:
            nbr = next(iter(tri[x]))
            if inside_interval(face_of[(x, nbr)], child):
                inside -= weight[x]
        outside = total - inside - cycle_w
        if 3 * inside <= 2 * total and 3 * outside <= 2 * total:
            out = set(cycle)
            out.discard(root)
            return out
    return None


def _tree_path_dict(parent: dict, u, v):
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


def lt_separator(G: Graph, beta=Fraction(2, 3), root: int = 0) -> LTSeparator:
    """Balanced vertex separator of a connected planar graph.

    Target size is O(sqrt(n)); balance (max component weight <= beta * W)
    is guaranteed by construction plus a verified fallback. Raises BadBeta
    unless 1/2 < beta < 1.
    """
    beta = check_beta(beta)
    W = G.total_weight
    if W == 0:
        raise ZeroTotalWeight("all vertex weights are zero")
    planar_embed(G)  # raises Disconnected / NotPlanar

    if G.n <= 4:
        S: set[int] = set()
        steps = _greedy_balance(G, S, beta)
        return LTSeparator(vertices=S, level_info={}, fallback_steps=steps)

    level, levels, level_weights = bfs_levels(G, root)
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
    if not verify_separator(G, S, beta).passed:
        heavy, _ = _heaviest_component(G, S)
        cycle = _band_cycle_shrink(G, S, heavy, beta, level, l0)
        if cycle is not None:
            S |= cycle

    steps = _greedy_balance(G, S, beta)
    _prune_redundant(G, S, beta)
    return LTSeparator(vertices=S, level_info=info, cycle_info=cycle, fallback_steps=steps)


def _prune_redundant(G: Graph, S: set[int], beta: Fraction) -> None:
    """Drop separator vertices whose removal keeps the balance verified.

    Level-based separators carry whole BFS levels even when a few cut
    vertices suffice; this pass trims them. Ascending-ID scan keeps the
    result deterministic.
    """
    for v in sorted(S):
        S.discard(v)
        if not verify_separator(G, S, beta).passed:
            S.add(v)

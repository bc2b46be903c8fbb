"""networkx reference for the band cycle, kept to check the rotation-system port.

This is the band step of ``lt_separator`` as it ran on networkx's
``PlanarEmbedding``: ``triangulate_embedding`` on a copy of the band's
embedding, then a fundamental-cycle scan whose faces come from
``traverse_face``. The tests require the port in ``atsep.planar`` to give
the same triangulated edge set, the same clockwise rotation at every
vertex and the same cycle.
"""

from collections import deque

import networkx as nx
from networkx.algorithms.planar_drawing import triangulate_embedding

from conftest import row


def reference_band_graph(G, heavy, level, l0):
    """The heavy band plus a virtual root -1 standing for levels <= l0."""
    hset = set(heavy)
    B = nx.Graph()
    root = -1
    B.add_node(root)
    B.add_nodes_from(heavy)
    for u in heavy:
        for v in row(G, u):
            if v in hset:
                B.add_edge(u, v)
            elif level[v] <= l0:
                B.add_edge(root, u)
    return B


def reference_band_triangulation(G, heavy, level, l0):
    """networkx's full triangulation of the band's embedding, or None."""
    B = reference_band_graph(G, heavy, level, l0)
    if B.number_of_nodes() < 3:
        return None
    ok, emb = nx.check_planarity(B, counterexample=False)
    if not ok:
        return None
    tri, _ = triangulate_embedding(emb, fully_triangulate=True)
    return tri


def reference_band_cycle_shrink(G, heavy, level, l0):
    tri = reference_band_triangulation(G, heavy, level, l0)
    if tri is None:
        return None
    weight = {v: G.weights[v] for v in heavy}
    weight[-1] = 0
    return reference_balanced_fundamental_cycle(tri, -1, weight)


def reference_balanced_fundamental_cycle(tri, root, weight):
    """Vertices of a fundamental cycle of ``tri`` leaving <= 2/3 on each side.

    The BFS tree grows from ``root``, which the result omits; None if no
    fundamental cycle balances.
    """
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
        cycle = _tree_path(parent, u, v)
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

"""Dict-walk reference for the path stages, kept to check the array passes.

These are the scalar forms of ``steiner_subtree`` and ``decompose_paths``
that the pipeline used before its stages became numpy passes over the
parent array. The tests require the production stages to give exactly
the same membership, branch set and paths (order and orientation).
"""

from collections import deque


def reference_steiner_subtree(T, terminals):
    """(member, adjacency) of the minimal subtree of T containing all terminals.

    Walks each terminal's root path until it meets an already-marked
    vertex, then prunes non-terminal leaves off the marked union.
    ``adjacency`` maps each subtree vertex, in ascending order, to its
    sorted subtree neighbours.
    """
    terms = set(terminals)
    parent = T.parent
    member = [False] * T.n
    marked: list[int] = []
    for t in sorted(terms):
        v = t
        while not member[v]:
            member[v] = True
            marked.append(v)
            if parent[v] == v:
                break
            v = parent[v]
    adj: dict[int, list[int]] = {v: [] for v in marked}
    for v in marked:
        p = parent[v]
        if p != v:
            adj[v].append(p)
            adj[p].append(v)
    deg = {v: len(a) for v, a in adj.items()}
    queue = deque(v for v in marked if deg[v] <= 1 and v not in terms)
    while queue:
        v = queue.popleft()
        if not member[v]:
            continue
        member[v] = False
        for u in adj[v]:
            if member[u]:
                deg[u] -= 1
                if deg[u] <= 1 and u not in terms:
                    queue.append(u)
    sub_adj = {
        v: sorted(u for u in adj[v] if member[u])
        for v in sorted(adj)
        if member[v]
    }
    return member, sub_adj


def reference_branch_vertices(adjacency, terminals) -> set[int]:
    members = set(terminals)
    for v, nbrs in adjacency.items():
        if len(nbrs) >= 3:
            members.add(v)
    return members


def reference_decompose_paths(adjacency, branch) -> list[list[int]]:
    """Maximal branch-to-branch paths, walked from each branch vertex in order."""
    paths = []
    used: set[tuple[int, int]] = set()

    def edge_key(a, b):
        return (a, b) if a < b else (b, a)

    for u in sorted(branch):
        for v in adjacency.get(u, ()):
            if edge_key(u, v) in used:
                continue
            path = [u]
            prev, cur = u, v
            used.add(edge_key(u, v))
            while cur not in branch:
                path.append(cur)
                nxt = next(x for x in adjacency[cur] if x != prev)
                used.add(edge_key(cur, nxt))
                prev, cur = cur, nxt
            path.append(cur)
            paths.append(path)
    return paths

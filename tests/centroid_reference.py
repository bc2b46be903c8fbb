"""Dict-based reference for ``tree_centroid``, kept to check the array walk.

This is the centroid as it ran before ``tree_centroid`` took a ``Graph``:
a breadth-first walk from the lowest vertex over an adjacency mapping,
each vertex hanging off the first neighbour that reaches it, with the
parent, subtree and heaviest-child weights kept in dicts. On a tree the
walk's order does not matter, so the tests require ``tree_centroid`` to
give the same vertex.
"""

from collections import deque


def reference_tree_centroid(vertices, adjacency, weights) -> int:
    """Vertex of a weighted tree whose removal leaves parts of weight <= W/2.

    ``adjacency[u]`` lists u's neighbours; ties go to the lowest vertex.
    """
    verts = sorted(vertices)
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

"""The per-node loop that built the planarity kernel before its chain pass.

Kept as the reference the kernel tests compare against: it puts every
vertex's neighbour set in a dict, then peels vertices of degree <= 1 and
suppresses vertices of degree 2 (dropping a joining edge that is already
there) until neither applies. ``atsep.planar._planarity_kernel`` must
return the same adjacency sets.
"""

from conftest import row


def reference_kernel(G) -> dict[int, set[int]]:
    nbrs = {v: set(row(G, v)) for v in range(G.n)}
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

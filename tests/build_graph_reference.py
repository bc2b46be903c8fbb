"""The loop that built graphs before ``build_graph`` validated with numpy.

Kept as the reference the parity test compares against: which error a
bad input raises, with which message, and each vertex's neighbours in
insertion order.
"""

from atsep.errors import BadVertexId, DuplicateEdge, Overflow, SelfLoop
from atsep.graph import MAX_TOTAL_WEIGHT


def reference_build_graph(n, edges, weights=None):
    """(adjacency lists, weights) as the loop built them; raises on bad input."""
    if n < 0:
        raise BadVertexId(f"negative vertex count {n}")
    if weights is None:
        weights = [1] * n
    else:
        weights = list(weights)
    if len(weights) != n:
        raise BadVertexId(f"expected {n} weights, got {len(weights)}")
    total = 0
    for v, w in enumerate(weights):
        if w < 0:
            raise Overflow(f"negative weight {w} at vertex {v}")
        total += w
        if total > MAX_TOTAL_WEIGHT:
            raise Overflow("total weight exceeds 64 bits")

    adjacency = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertexId(f"edge ({u}, {v}) out of range [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency, weights

"""Shared builders for small fixture graphs, and a reader of the weight collapse."""

from typing import NamedTuple

import networkx as nx
import numpy as np

from atsep.graph import Graph, build_graph
from atsep.pipeline import _entries


def row(G: Graph, v: int) -> list[int]:
    """The neighbours of v, in the order of G's CSR row."""
    return G.indices[G.indptr[v]:G.indptr[v + 1]].tolist()


def cycle(n: int, weights=None) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], weights)


def path(n: int, weights=None) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], weights)


def star(n: int, weights=None) -> Graph:
    """Center 0, leaves 1..n-1."""
    return build_graph(n, [(0, v) for v in range(1, n)], weights)


def complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def theta() -> Graph:
    """C8 plus the chord 0-4: n=8, m=9, excess r=1."""
    return build_graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])


def random_parent_tree(rng, n: int) -> Graph:
    """Tree where each vertex v >= 1 hangs off a random earlier vertex."""
    return build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def subdivided(edges, length, rng, hang=0):
    """Each edge a path of ``length`` new vertices, plus ``hang`` pendant
    trees of up to four vertices hung on random path vertices."""
    n = max(max(e) for e in edges) + 1
    out = []
    inner = []
    for u, v in edges:
        chain = list(range(n, n + length))
        n += length
        inner += chain
        out += zip([u] + chain, chain + [v])
    for _ in range(hang):
        tree = [rng.choice(inner)]
        for _ in range(rng.randint(1, 4)):
            out.append((rng.choice(tree), n))
            tree.append(n)
            n += 1
    return build_graph(n, out)


def chained(edges, rng, shortest, longest, hang=0):
    """Each edge a chain of ``shortest``..``longest`` new vertices, plus
    ``hang`` pendant trees of up to four vertices on random vertices, with
    shuffled IDs."""
    edges = list(edges)
    n = max(max(e) for e in edges) + 1
    out = []
    for u, v in edges:
        chain = list(range(n, n + rng.randint(shortest, longest)))
        n += len(chain)
        out += zip([u, *chain], [*chain, v])
    for _ in range(hang):
        tree = [rng.randrange(n)]
        for _ in range(rng.randint(1, 4)):
            out.append((rng.choice(tree), n))
            tree.append(n)
            n += 1
    label = list(range(n))
    rng.shuffle(label)
    return build_graph(n, [(label[u], label[v]) for u, v in out])


def stacked_triangulation(n, rng):
    """nx.Graph of a random stacked triangulation on n >= 3 nodes."""
    G = nx.Graph([(0, 1), (1, 2), (0, 2)])
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        G.add_edges_from([(v, a), (v, b), (v, c)])
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return G


def path_lists(paths) -> list[list[int]]:
    """A ``Paths`` record as one list per path, endpoints included."""
    flat, offsets = paths.interiors.tolist(), paths.offsets.tolist()
    return [[a, *flat[lo:hi], b]
            for (a, b), lo, hi in zip(paths.ends.tolist(), offsets, offsets[1:])]


def edge_ends(R) -> list[int]:
    """The distinct ends of the rows of R, ascending: the terminals."""
    return sorted(set(R.ravel().tolist()))


class Collapse(NamedTuple):
    nearest: list[int]
    weights: list[int]


def collapsed(cw) -> Collapse:
    """A ``CollapsedWeights`` read back per vertex: each vertex's nearest
    subtree vertex, and each vertex's collapsed weight (0 off the subtree),
    as lists of ints. Reads ``cw.weights``, so call it before
    ``build_compressed_graph`` takes them."""
    T1 = cw.T1
    index = _entries(T1.parent, cw.root, T1.member, None, index=True)[4]
    # an entry's nearest subtree vertex is itself or its parent, or T1's
    # top for a root that T1 misses
    ids = cw.entries.nonzero()[0]
    attach = np.where(T1.member[ids], ids, T1.parent[ids])
    if not T1.member[cw.root]:
        attach[attach == cw.root] = T1.top
    nearest = attach[index]
    weights = np.zeros(len(T1.member), dtype=np.int64)
    weights[T1.member] = cw.weights
    return Collapse(nearest.tolist(), weights.tolist())

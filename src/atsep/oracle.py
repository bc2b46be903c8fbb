"""Exponential-time ground truth for small instances.

Enumerates vertex subsets by increasing size, so the first passing
subset is a minimum balanced separator and the lexicographically first
witness is deterministic. Hard caps keep misuse from exploding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import EmptyTerminals, TooLarge
from .graph import Graph, SpanningTree, verify_separator

MAX_ORACLE_VERTICES = 20
DEFAULT_MAX_SIZE = 8


@dataclass
class OracleResult:
    min_size: int | None
    witness: tuple[int, ...] | None
    feasible: bool


def min_balanced_separator(
    G: Graph, beta=Fraction(2, 3), max_size: int | None = None
) -> OracleResult:
    """Smallest balanced separator of at most ``max_size`` (0 to n) vertices."""
    if G.n > MAX_ORACLE_VERTICES:
        raise TooLarge(f"oracle capped at {MAX_ORACLE_VERTICES} vertices, got {G.n}")
    if max_size is None:
        max_size = min(DEFAULT_MAX_SIZE, G.n)
    if max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {max_size}")
    if max_size > G.n:
        raise TooLarge(f"max_size {max_size} exceeds vertex count {G.n}")
    beta = Fraction(beta)
    for size in range(max_size + 1):
        for subset in combinations(range(G.n), size):
            if verify_separator(G, subset, beta).passed:
                return OracleResult(min_size=size, witness=subset, feasible=True)
    return OracleResult(min_size=None, witness=None, feasible=False)


def steiner_subtree_oracle(T: SpanningTree, terminals) -> set[int]:
    """Union of pairwise tree paths between terminals."""
    terms = sorted(set(terminals))
    if not terms:
        raise EmptyTerminals("need at least one terminal")
    result = set(terms)
    for a, b in combinations(terms, 2):
        result |= set(_tree_path(T, a, b))
    return result


def _tree_path(T: SpanningTree, a: int, b: int) -> list[int]:
    ancestors = {}
    x = a
    while True:
        ancestors[x] = True
        if T.parent[x] == x:
            break
        x = T.parent[x]
    up_b = []
    y = b
    while y not in ancestors:
        up_b.append(y)
        y = T.parent[y]
    up_a = []
    x = a
    while x != y:
        up_a.append(x)
        x = T.parent[x]
    return up_a + [y] + list(reversed(up_b))


def nearest_in_set_oracle(T: SpanningTree, targets) -> list[int]:
    """Per-vertex nearest target by tree distance; ties go to the lower ID.

    Deliberately brute force: one BFS per vertex.
    """
    targets = sorted(set(targets))
    if not targets:
        raise EmptyTerminals("need at least one target")
    adj: list[list[int]] = [[] for _ in range(T.n)]
    for v, p in enumerate(T.parent):
        if p != v:
            adj[v].append(p)
            adj[p].append(v)
    target_set = set(targets)
    nearest = []
    for s in range(T.n):
        dist = [-1] * T.n
        dist[s] = 0
        queue = deque([s])
        best = None
        while queue:
            u = queue.popleft()
            if best is not None and dist[u] > best[0]:
                break
            if u in target_set:
                cand = (dist[u], u)
                if best is None or cand < best:
                    best = cand
            for v in adj[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        nearest.append(best[1])
    return nearest

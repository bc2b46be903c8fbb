"""Separator checks of the benchmark's own.

Nothing here uses ``atsep``: the components of G - S come from the
instance's edge arrays through scipy, and balance is compared in exact
integers.
"""

from __future__ import annotations

from math import isqrt

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components


def size_bound_ok(size: int, r: int) -> bool:
    """|S| <= 4 sqrt(r + 1) + 2, or |S| = 1 for a tree (r = -1); exact."""
    if r < 0:
        return size == 1
    if size <= 2:
        return True
    # (size - 2)^2 <= 16 (r + 1), both sides integers
    return (size - 2) ** 2 <= 16 * (r + 1)


def size_bound(r: int) -> int:
    """Largest |S| that size_bound_ok accepts."""
    return 1 if r < 0 else 2 + isqrt(16 * (r + 1))


def max_component_weight(n: int, edges: np.ndarray, weights: np.ndarray, S) -> int:
    """Heaviest component of G - S, from the edge arrays alone."""
    keep = np.ones(n, dtype=bool)
    keep[np.asarray(sorted(S), dtype=np.int64)] = False
    e = edges[keep[edges[:, 0]] & keep[edges[:, 1]]]
    A = coo_array((np.ones(len(e), dtype=np.int8), (e[:, 0], e[:, 1])), shape=(n, n))
    ncomp, labels = connected_components(A, directed=False)
    sums = np.zeros(ncomp, dtype=np.int64)
    np.add.at(sums, labels[keep], weights[keep])
    return int(sums.max())


def check_separator(inst, S) -> str | None:
    """Why S is not a valid answer for ``inst``, or None if it is.

    ``inst`` needs ``n``, ``r``, ``edges`` ((m, 2) int array), ``weights``
    and ``beta`` (a Fraction).
    """
    ids = list(S)
    if any(not isinstance(v, (int, np.integer)) for v in ids):
        return "separator holds a non-integer ID"
    if any(not 0 <= v < inst.n for v in ids):
        return "separator ID out of range"
    if len(set(ids)) != len(ids):
        return "separator IDs repeat"
    if not size_bound_ok(len(ids), inst.r):
        return f"|S| = {len(ids)} exceeds the bound {size_bound(inst.r)} for r = {inst.r}"
    W = int(inst.weights.sum())
    heaviest = max_component_weight(inst.n, inst.edges, inst.weights, ids)
    beta = inst.beta
    if heaviest * beta.denominator > W * beta.numerator:
        return f"component of weight {heaviest} > {beta} of W = {W}"
    return None

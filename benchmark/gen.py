"""Seeded planar near-tree instances for the benchmark.

The benchmark builds its inputs here rather than with ``atsep.gen``, so a
rewrite of the program's generator cannot shift the workloads. Every
instance is a connected simple planar graph with m = n + r edges:

* a core that is planar by construction: a random stacked triangulation
  trimmed to r, or an a x b grid (r = ab - a - b), or a single vertex for
  trees (r = -1);
* some vertices subdividing core edges into paths, which keeps planarity
  and r;
* the rest hanging off as random recursive trees (each new vertex takes a
  uniformly random earlier vertex as its parent), which keeps planarity
  and adds one vertex and one edge each;
* vertex IDs permuted at random, or all but the core's.

Only the core is checked with networkx: subdivisions and hanging trees
cannot break planarity. The whole graph is checked to be simple and
connected with m = n + r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, exp, log

import networkx as nx
import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

WORKLOADS = ("forest-1m", "core-2k", "many-small")
_TAG = {name: i + 1 for i, name in enumerate(WORKLOADS)}

WEIGHT_MODES = ("unit", "uniform", "heavy")
BETAS = (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))

# the second word of every random stream's key, after the workload's tag
_FIXED_CORE, _SEEDED, _STRATUM, _MEMBER = range(4)

# many-small draws one instance per stratum from a pool of STRATA x
# PER_STRATUM instances that do not depend on the seed. The pool members
# below are the ones the lifting fault (README.md) makes fail; every
# many-small round runs all of them, whatever the seed, and never draws them.
STRATA = 300
PER_STRATUM = 3
POOL = STRATA * PER_STRATUM
KNOWN_FAULT = (
    55, 110, 167, 217, 235, 236, 238, 338, 418, 441, 443, 450,
    451, 525, 559, 567, 568, 603, 604, 639, 651, 706, 804, 805,
)


@dataclass
class Instance:
    name: str
    n: int
    r: int
    edges: np.ndarray  # (m, 2) int64, 0-based, each edge once with u < v
    weights: np.ndarray  # (n,) int64
    beta: Fraction
    params: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.edges)

    def text(self) -> str:
        """The edge-list format ``atsep.fileformat.parse_graph`` reads."""
        lines = [f"c {self.name}", f"p {self.n} {self.m}"]
        e = self.edges + 1
        lines.extend(map("e {} {}".format, e[:, 0].tolist(), e[:, 1].tolist()))
        heavy = np.flatnonzero(self.weights != 1)
        lines.extend(
            map("w {} {}".format, (heavy + 1).tolist(), self.weights[heavy].tolist())
        )
        return "\n".join(lines) + "\n"


def stacked_core(rng, r: int):
    """Random stacked triangulation with 2k - 6 >= r, one edge deleted if needed.

    Returns (k, edges). A triangulation on k >= 4 vertices is 3-connected,
    so deleting one edge keeps it connected.
    """
    k = max(3, ceil((r + 6) / 2))
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, k):
        i = int(rng.integers(len(faces)))
        a, b, c = faces[i]
        faces[i] = (a, b, v)
        faces.extend(((b, c, v), (a, c, v)))
        edges.extend(((a, v), (b, v), (c, v)))
    surplus = len(edges) - k - r
    if surplus not in (0, 1):
        raise ValueError(f"cannot trim a stacked core on {k} vertices to r={r}")
    if surplus:
        del edges[int(rng.integers(len(edges)))]
    return k, edges


def grid_core(a: int, b: int):
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return a * b, edges


def _check_core_planar(k: int, core_edges) -> None:
    H = nx.Graph()
    H.add_nodes_from(range(k))
    H.add_edges_from(core_edges)
    if not nx.check_planarity(H)[0]:
        raise AssertionError("generated core is not planar")


def build(rng, name, n, r, core_graph, path_vertices, weight_mode, beta,
          trees="any", fixed_core_ids=False, **params) -> Instance:
    """Subdivide, hang trees off, permute and weight a core; then check it.

    ``trees="any"`` grows one random recursive tree over all earlier
    vertices, so trees also hang off path vertices; ``trees="core"`` gives
    every core vertex its own random recursive tree of an equal share of
    the remaining vertices. ``fixed_core_ids`` keeps the core on IDs
    0..k-1 and permutes only the other vertices.
    """
    k, core_edges = core_graph
    _check_core_planar(k, core_edges)
    if r != len(core_edges) - k:
        raise AssertionError(f"core has r={len(core_edges) - k}, expected {r}")
    if not core_edges:
        path_vertices = 0
    if n < k + path_vertices:
        raise ValueError(f"n={n} too small for a core of {k} and {path_vertices} path vertices")
    parts = []
    nxt = k
    if core_edges:
        counts = rng.multinomial(path_vertices, [1 / len(core_edges)] * len(core_edges))
        for (u, v), c in zip(core_edges, counts):
            chain = np.concatenate(([u], np.arange(nxt, nxt + c), [v]))
            parts.append(np.stack((chain[:-1], chain[1:]), axis=1))
            nxt += int(c)
    if trees == "any":
        child = np.arange(nxt, n, dtype=np.int64)
        parent = (rng.random(len(child)) * child).astype(np.int64)
        parts.append(np.stack((parent, child), axis=1))
    elif trees == "core":
        sizes = np.full(k, (n - nxt) // k, dtype=np.int64)
        sizes[: (n - nxt) % k] += 1
        for root, size in enumerate(sizes.tolist()):
            # local index t = 1..size takes a parent among 0..t-1; 0 is the root
            t = np.arange(1, size + 1, dtype=np.int64)
            local = (rng.random(size) * t).astype(np.int64)
            parent = np.where(local == 0, root, nxt + local - 1)
            parts.append(np.stack((parent, nxt + t - 1), axis=1))
            nxt += size
    else:
        raise ValueError(f"unknown tree mode {trees!r}")
    edges = np.concatenate(parts).astype(np.int64) if parts else np.zeros((0, 2), np.int64)
    if fixed_core_ids:
        perm = np.concatenate((np.arange(k), k + rng.permutation(n - k))).astype(np.int64)
    else:
        perm = rng.permutation(n).astype(np.int64)
    edges = np.sort(perm[edges], axis=1)
    edges = edges[rng.permutation(len(edges))]
    if weight_mode == "unit":
        weights = np.ones(n, dtype=np.int64)
    elif weight_mode == "uniform":
        weights = rng.integers(1, 101, size=n, dtype=np.int64)
    elif weight_mode == "heavy":
        # one vertex holds 70% of W; everyone else weighs 1
        weights = np.ones(n, dtype=np.int64)
        weights[int(rng.integers(n))] = ceil(7 * (n - 1) / 3)
    else:
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    inst = Instance(name, n, r, edges, weights, Fraction(beta), dict(params))
    check_instance(inst)
    return inst


def check_instance(inst: Instance) -> None:
    """Simple, connected, m = n + r; raises AssertionError otherwise."""
    n, e = inst.n, inst.edges
    if inst.m != n + inst.r:
        raise AssertionError(f"{inst.name}: m={inst.m} but n + r = {n + inst.r}")
    if len(e) and not ((e[:, 0] < e[:, 1]).all() and e.min() >= 0 and e.max() < n):
        raise AssertionError(f"{inst.name}: self-loop or vertex out of range")
    if len(np.unique(e[:, 0] * n + e[:, 1])) != len(e):
        raise AssertionError(f"{inst.name}: duplicate edge")
    A = coo_array((np.ones(len(e), dtype=np.int8), (e[:, 0], e[:, 1])), shape=(n, n))
    if connected_components(A, directed=False)[0] != 1:
        raise AssertionError(f"{inst.name}: not connected")


def _rng(workload: str, *key: int):
    return np.random.default_rng([_TAG[workload], *key])


def _fixed_stacked_core(workload: str, r: int):
    """The stacked core a workload uses for every seed.

    forest-1m and core-2k keep their core fixed so that |S| and the work of
    LT do not jump with the seed; the seed draws the path lengths, trees,
    weights and the IDs of the non-core vertices.
    """
    return stacked_core(_rng(workload, _FIXED_CORE), r)


def forest_1m(seed: int) -> list[Instance]:
    """n = 1e6, r = 16, unit weights; 1% of vertices on core paths.

    Every core vertex roots a random recursive tree of an equal share of
    the other 99% of the vertices.
    """
    rng = _rng("forest-1m", _SEEDED, seed)
    n, r = 1_000_000, 16
    return [build(rng, f"forest-1m/{seed}/0", n, r, _fixed_stacked_core("forest-1m", r),
                  n // 100, "unit", Fraction(2, 3), trees="core", fixed_core_ids=True,
                  core="stacked")]


def core_2k(seed: int) -> list[Instance]:
    """n = 2e5; a stacked core with r = 2048 and a 45 x 45 grid core (r = 1935).

    80% of the non-core vertices subdivide core edges, the rest hang off
    as trees. The stacked instance has unit weights, the grid uniform ones.
    """
    n = 200_000
    out = []
    for i, (kind, mode) in enumerate((("stacked", "unit"), ("grid", "uniform"))):
        rng = _rng("core-2k", _SEEDED, seed, i)
        if kind == "stacked":
            r, core = 2048, _fixed_stacked_core("core-2k", 2048)
        else:
            r, core = 1935, grid_core(45, 45)
        paths = int(0.8 * (n - core[0]))
        out.append(build(rng, f"core-2k/{seed}/{i}", n, r, core, paths, mode,
                         Fraction(2, 3), fixed_core_ids=True, core=kind))
    return out


def small_instance(index: int) -> Instance:
    """Member ``index`` of the many-small pool; it does not depend on --seed.

    The members of one stratum (index // PER_STRATUM) share n, the core
    kind, r, the path share, the weight mode and beta; each draws its own
    core, paths, trees, IDs and weights. Weight modes and beta cycle with
    the stratum.
    """
    stratum = index // PER_STRATUM
    rng = _rng("many-small", _STRATUM, stratum)
    n = int(round(exp(rng.uniform(log(50), log(3000)))))
    kind = str(rng.choice(["stacked", "grid", "tree"], p=[0.45, 0.45, 0.1]))
    a = b = r = -1
    if kind == "grid":
        while True:
            a, b = (int(x) for x in rng.integers(2, 10, size=2))
            if a * b - a - b <= 64:
                break
        r = a * b - a - b
    elif kind == "stacked":
        r = int(rng.integers(0, 65))
    share = float(rng.uniform(0, 1))
    mode = WEIGHT_MODES[stratum % 3]
    beta = BETAS[(stratum // 3) % 3]

    rng = _rng("many-small", _MEMBER, index)
    if kind == "tree":
        core = (1, [])
    elif kind == "grid":
        core = grid_core(a, b)
    else:
        core = stacked_core(rng, r)
    n = max(n, core[0])
    paths = int(round(share * (n - core[0])))
    return build(rng, f"many-small/{index}", n, r, core, paths, mode, beta,
                 core=kind, path_share=round(share, 3))


def many_small(seed: int) -> list[Instance]:
    """One member per stratum drawn by the seed, then every KNOWN_FAULT member."""
    rng = _rng("many-small", _SEEDED, seed)
    fault = set(KNOWN_FAULT)
    picked = []
    for stratum in range(STRATA):
        members = [j for j in range(stratum * PER_STRATUM, (stratum + 1) * PER_STRATUM)
                   if j not in fault]
        picked.append(members[int(rng.integers(len(members)))])
    return [small_instance(j) for j in picked] + [small_instance(j) for j in KNOWN_FAULT]


def instances(workload: str, seed: int) -> list[Instance]:
    if workload == "forest-1m":
        return forest_1m(seed)
    if workload == "core-2k":
        return core_2k(seed)
    if workload == "many-small":
        return many_small(seed)
    raise ValueError(f"unknown workload {workload!r}")

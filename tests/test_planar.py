"""Planar separator module: BFS levels and the Lipton-Tarjan separator."""

import gc
import random
from fractions import Fraction
from math import sqrt

import networkx as nx
import pytest

import atsep.graph
import atsep.planar
from atsep.errors import (
    BadBeta,
    BadVertexId,
    Disconnected,
    NotPlanar,
    ZeroTotalWeight,
)
from atsep.gen import GenSpec, generate, grid_graph
from atsep.graph import build_graph, connected_components, verify_separator
from atsep.pipeline import separate
from atsep.planar import (
    _balanced_fundamental_cycle,
    _band_cycle_shrink,
    _band_rotation,
    _greedy_balance,
    _lr_rotation,
    _lr_test,
    _planarity_kernel,
    _prune_redundant,
    _triangulate,
    bfs_levels,
    lt_separator,
)

from band_cycle_reference import (
    reference_band_cycle_shrink,
    reference_band_graph,
    reference_band_triangulation,
)
from conftest import complete, cycle, path, row, stacked_triangulation, star, subdivided


class TestBfsLevels:
    def test_path(self):
        level, levels, level_weights = bfs_levels(path(3), 0)
        assert level == [0, 1, 2]
        assert levels == [[0], [1], [2]]

    def test_star_from_center(self):
        _, levels, _ = bfs_levels(star(5), 0)
        assert [len(l) for l in levels] == [1, 4]

    def test_grid_from_corner(self):
        _, levels, _ = bfs_levels(grid_graph(3, 3), 0)
        assert [len(l) for l in levels] == [1, 2, 3, 2, 1]

    def test_level_weights_sum_to_total(self):
        G = build_graph(4, [(0, 1), (1, 2), (2, 3)], [2, 3, 5, 7])
        _, _, level_weights = bfs_levels(G, 1)
        assert sum(level_weights) == 17


def _wide(k: int) -> int:
    """k times the frontier size from which the walk steps as arrays."""
    return k * atsep.graph._VEC_MIN_FRONTIER


# graphs with BFS layers that the walk steps as arrays
_WIDE = [
    pytest.param(lambda: generate(GenSpec(n=20000, r=40, seed=2, weight_mode=("uniform", 0, 9))),
                 id="generated"),
    pytest.param(lambda: grid_graph(_wide(1) + 22, _wide(1) + 32), id="grid"),
    pytest.param(lambda: build_graph(_wide(5), [(0, v) for v in range(1, _wide(5))],
                                     range(_wide(5))),
                 id="star"),
]


class TestBfsLevelsOnWideLayers:
    @pytest.mark.parametrize("make", _WIDE)
    def test_levels_are_bfs_distances(self, make):
        G = make()
        H = nx.Graph(list(G.edges()))
        H.add_nodes_from(range(G.n))
        for root in (0, G.n // 3, G.n - 1):
            level, levels, level_weights = bfs_levels(G, root)
            dist = nx.single_source_shortest_path_length(H, root)
            assert level == [dist[v] for v in range(G.n)]
            assert max(map(len, levels)) >= _wide(1)
            want = [[] for _ in range(max(dist.values()) + 1)]
            for v in range(G.n):
                want[dist[v]].append(v)
            assert levels == want
            assert all(type(v) is int for layer in levels for v in layer)
            assert level_weights == [sum(G.weights[v] for v in layer) for layer in levels]

    @pytest.mark.parametrize("make", _WIDE)
    def test_root_outside_the_graph_raises(self, make):
        G = make()
        for root in (-1, G.n):
            with pytest.raises(BadVertexId, match=f"root {root} out of range \\[0, {G.n}\\)"):
                bfs_levels(G, root)

    @pytest.mark.parametrize("make", _WIDE)
    def test_unreachable_vertex_raises(self, make):
        G = make()
        # one more vertex, isolated, keeps every layer as wide as before
        H = build_graph(G.n + 1, list(G.edges()))
        with pytest.raises(Disconnected, match=f"only {G.n} of {G.n + 1} vertices reachable"):
            bfs_levels(H, 0)


class TestLtSeparator:
    def test_c6(self):
        G = cycle(6)
        lt = lt_separator(G)
        assert verify_separator(G, lt.vertices).passed
        assert len(lt.vertices) <= 4 * sqrt(6)

    def test_k4(self):
        G = complete(4)
        lt = lt_separator(G)
        assert verify_separator(G, lt.vertices).passed

    def test_grid(self):
        G = grid_graph(3, 3)
        lt = lt_separator(G)
        assert verify_separator(G, lt.vertices).passed
        assert len(lt.vertices) <= 4 * 3

    def test_tree_degenerates_gracefully(self):
        G = path(30)
        lt = lt_separator(G)
        assert verify_separator(G, lt.vertices).passed
        assert len(lt.vertices) <= 2

    def test_weighted_instance(self):
        G = build_graph(6, [(i, (i + 1) % 6) for i in range(6)], [9, 1, 1, 9, 1, 1])
        lt = lt_separator(G)
        assert verify_separator(G, lt.vertices).passed

    def test_not_planar(self):
        with pytest.raises(NotPlanar):
            lt_separator(complete(5))

    def test_zero_weight(self):
        with pytest.raises(ZeroTotalWeight):
            lt_separator(build_graph(3, [(0, 1), (1, 2)], [0, 0, 0]))

    @pytest.mark.parametrize("beta", [0, Fraction(1, 2), 1, Fraction(3, 2)])
    def test_beta_outside_open_interval_rejected(self, beta):
        with pytest.raises(BadBeta):
            lt_separator(grid_graph(4, 4), beta=beta)

    def test_deterministic(self):
        G = grid_graph(5, 4)
        assert lt_separator(G).vertices == lt_separator(G).vertices

    def test_triangle(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        lt = lt_separator(G)
        assert len(lt.vertices) == 1
        assert verify_separator(G, lt.vertices).passed

    def test_wheel(self):
        # hub 0 with a 5-cycle rim
        rim = [(i, i % 5 + 1) for i in range(1, 6)]
        G = build_graph(6, [(0, v) for v in range(1, 6)] + rim)
        lt = lt_separator(G)
        assert len(lt.vertices) <= 3
        assert verify_separator(G, lt.vertices).passed


class TestPlanarEmbed:
    """The planarity gate inside lt_separator: one nx.check_planarity call,
    on the graph's kernel."""

    def test_k5_not_planar(self, monkeypatch):
        calls = []
        real = nx.check_planarity

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(nx, "check_planarity", counting)
        with pytest.raises(NotPlanar):
            lt_separator(complete(5))
        assert len(calls) == 1


class TestLtGate:
    """Connectivity is checked before planarity, by one test each."""

    def test_disconnected_four_vertices(self):
        with pytest.raises(Disconnected):
            lt_separator(build_graph(4, [(0, 1), (2, 3)]))

    def test_disconnected_more_than_four_vertices(self):
        G = build_graph(8, [(i, (i + 1) % 4) for i in range(4)] + [(4, 5), (5, 6), (6, 7)])
        with pytest.raises(Disconnected):
            lt_separator(G)

    def test_k5_plus_isolated_vertex_is_disconnected(self):
        G = build_graph(6, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        with pytest.raises(Disconnected):
            lt_separator(G)

    def test_one_planarity_test_when_levels_balance(self, monkeypatch):
        calls = []
        real = nx.check_planarity

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(nx, "check_planarity", counting)
        lt = lt_separator(grid_graph(5, 4))
        assert lt.cycle_info is None
        assert len(calls) == 1


K5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
K33 = [(u, v) for u in range(3) for v in range(3, 6)]
PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
    (5 + i, 5 + (i + 2) % 5) for i in range(5)
]


def _gate_cases():
    """(id, graph, planar) triples."""
    rng = random.Random(8)
    yield "k5-subdivided", subdivided(K5, 40, rng, hang=30), False
    yield "k33-subdivided", subdivided(K33, 25, rng, hang=30), False
    # K3,3 with its edge 0-3 doubled: the two paths suppress into one
    # edge and its parallel copy, which the kernel drops
    yield "k33-parallel-paths", subdivided(K33 + [(0, 6), (6, 3)], 7, rng, hang=5), False
    yield "petersen", build_graph(10, PETERSEN), False
    for seed in range(20):
        spec = GenSpec(n=rng.randint(50, 400), r=rng.randint(0, 40), seed=seed)
        yield f"gen-{seed}", generate(spec), True
    yield "cycle", cycle(3000), True
    yield "path", path(3000), True
    yield "tree", build_graph(500, [(v, rng.randrange(v)) for v in range(1, 500)]), True
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    yield "k4-subdivided", subdivided(k4, 30, rng, hang=20), True


_GATE_CASES = list(_gate_cases())


class TestKernelGate:
    """The gate tests the kernel, whose verdict is the whole graph's."""

    @pytest.mark.parametrize(
        "G,planar", [case[1:] for case in _GATE_CASES], ids=[case[0] for case in _GATE_CASES]
    )
    def test_not_planar_exactly_when_the_whole_graph_is_not(self, G, planar):
        assert nx.check_planarity(nx.Graph(list(G.edges())))[0] == planar
        if planar:
            lt = lt_separator(G)
            assert verify_separator(G, lt.vertices).passed
        else:
            with pytest.raises(NotPlanar, match=f"{G.n} vertices and {G.m} edges"):
                lt_separator(G)

    @staticmethod
    def record_tested_sizes(monkeypatch):
        """(nodes, edges) of each graph handed to nx.check_planarity."""
        seen = []
        real = nx.check_planarity

        def recording(H, *args, **kwargs):
            seen.append((H.number_of_nodes(), H.number_of_edges()))
            return real(H, *args, **kwargs)

        monkeypatch.setattr(nx, "check_planarity", recording)
        return seen

    def test_subdivided_k5_gate_sees_five_nodes(self, monkeypatch):
        G = subdivided(K5, 100, random.Random(1))
        assert G.n == 5 + 1000
        seen = self.record_tested_sizes(monkeypatch)
        with pytest.raises(NotPlanar):
            lt_separator(G)
        assert seen == [(5, 10)]

    def test_empty_kernel_still_tested_once(self, monkeypatch):
        seen = self.record_tested_sizes(monkeypatch)
        lt = lt_separator(cycle(100))
        assert lt.cycle_info is None
        assert seen == [(0, 0)]


class TestLtBandCycle:
    def test_band_cycle_fires_on_small_near_tree(self):
        G = generate(GenSpec(n=60, r=32, seed=1))
        lt = lt_separator(G)
        assert lt.cycle_info is not None
        assert lt.fallback_steps == 0
        assert verify_separator(G, lt.vertices).passed
        assert len(lt.vertices) <= 4 * sqrt(G.n)


class TestLtGreedyFallback:
    @pytest.mark.parametrize(
        "G",
        [path(3), cycle(4), complete(4), star(4, [1, 5, 1, 1])],
        ids=["p3", "c4", "k4", "weighted-star"],
    )
    def test_one_component_pass_per_step_plus_one(self, G, monkeypatch):
        calls = []
        real = atsep.graph.connected_components

        def counting(H, *args, **kwargs):
            calls.append(H is G)
            return real(H, *args, **kwargs)

        monkeypatch.setattr(atsep.graph, "connected_components", counting)
        lt = lt_separator(G)
        assert lt.fallback_steps >= 1
        assert calls.count(True) == lt.fallback_steps + 1
        assert verify_separator(G, lt.vertices).passed


def count_component_passes(monkeypatch, G):
    """Record each connected_components call on G; planar reaches it only
    through verify_separator."""
    calls = []
    real = atsep.graph.connected_components

    def counting(H, *args, **kwargs):
        calls.append(H is G)
        return real(H, *args, **kwargs)

    monkeypatch.setattr(atsep.graph, "connected_components", counting)
    return calls


def reference_prune(G, S, beta):
    """The pruning pass as one full verification per separator vertex."""
    for v in sorted(S):
        S.discard(v)
        if not verify_separator(G, S, beta).passed:
            S.add(v)


class TestPruneRedundant:
    def test_no_component_pass_of_its_own(self, monkeypatch):
        G = generate(GenSpec(n=400, r=64, seed=2))
        S = set(range(0, G.n, 7))
        _, report = _greedy_balance(G, S, Fraction(2, 3), verify_separator(G, S, Fraction(2, 3)))
        calls = count_component_passes(monkeypatch, G)
        _prune_redundant(G, S, report)
        assert calls == []
        assert verify_separator(G, S).passed

    def test_unbalanced_entry_is_internal_fault(self):
        # the caller's report must show the balance the scan relies on
        with pytest.raises(AssertionError, match="balanced"):
            _prune_redundant(path(9), {0}, verify_separator(path(9), {0}, Fraction(2, 3)))

    def test_matches_verify_per_vertex_reference(self):
        rng = random.Random(5)
        modes = (("unit",), ("uniform", 1, 100), ("single_heavy", Fraction(7, 10)))
        betas = (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))
        dropped = kept = 0
        for case in range(60):
            n = rng.randint(5, 300)
            r = rng.randint(0, min(40, 2 * n - 7))
            G = generate(GenSpec(n=n, r=r, seed=case, weight_mode=modes[case % 3]))
            beta = betas[case // 3 % 3]
            S = set(rng.sample(range(n), rng.randint(0, n // 2)))
            _, report = _greedy_balance(G, S, beta, verify_separator(G, S, beta))
            want = set(S)
            reference_prune(G, want, beta)
            before = len(S)
            _prune_redundant(G, S, report)
            assert S == want, case
            dropped += before - len(S)
            kept += len(S)
        assert dropped > 0 and kept > 0


class TestLtComponentPasses:
    """One verification per separator formed: the level pair, S grown by
    the band cycle, and each greedy step; pruning reads the last report."""

    @pytest.mark.parametrize(
        "G,beta,cycle,steps",
        [
            (grid_graph(5, 4), Fraction(2, 3), False, 0),
            (generate(GenSpec(n=8, r=0, seed=5, weight_mode=("single_heavy", Fraction(7, 10)))),
             Fraction(2, 3), False, 1),
            (generate(GenSpec(n=60, r=32, seed=1)), Fraction(2, 3), True, 0),
            (generate(GenSpec(n=30, r=8, seed=1, weight_mode=("uniform", 1, 100))),
             Fraction(11, 20), True, 1),
        ],
        ids=["grid", "heavy-vertex", "band-cycle", "band-cycle-then-greedy"],
    )
    def test_passes_per_call(self, G, beta, cycle, steps, monkeypatch):
        calls = count_component_passes(monkeypatch, G)
        lt = lt_separator(G, beta=beta)
        assert (lt.cycle_info is not None, lt.fallback_steps) == (cycle, steps)
        assert calls.count(True) == lt.fallback_steps + (2 if cycle else 1)
        assert verify_separator(G, lt.vertices, beta).passed


def test_band_graphs_freed_without_collection():
    # the band's embedding and triangulation are one half-edge record of
    # flat int lists, so what a collection still finds is the gate's
    # networkx objects: its copies of the kernel inside nx.check_planarity
    G = generate(GenSpec(n=2000, r=600, seed=1))
    gc.collect()
    gc.disable()
    try:
        lt = lt_separator(G)
        freed = gc.collect()
    finally:
        gc.enable()
    assert lt.cycle_info is not None
    assert freed <= 2000


def check_half_edges(he):
    """The record's own invariants: twins reverse each other, each ring is
    a cycle of half-edges out of one node with rprev undoing rnext, and
    each start is a half-edge out of its node."""
    tail, head, rnext, rprev = he.tail, he.head, he.rnext, he.rprev
    assert len(tail) == len(head) == len(rnext) == len(rprev) and len(tail) % 2 == 0
    assert len(he.start) == len(he.label)
    for h in range(len(tail)):
        assert tail[h] == head[h ^ 1] and tail[h] != head[h]
        assert rprev[rnext[h]] == h and rnext[rprev[h]] == h
        assert tail[rnext[h]] == tail[h]
    for v, h in enumerate(he.start):
        assert h == -1 or tail[h] == v


def rotation_lists(he):
    """Each node's neighbour labels in clockwise order from its start
    half-edge, walked with rnext; walking back with rprev gives the
    same ring reversed."""
    label, head, rnext, rprev = he.label, he.head, he.rnext, he.rprev
    out = {}
    for v, first in enumerate(he.start):
        ring, back = [], []
        if first >= 0:
            h = first
            while True:
                ring.append(label[head[h]])
                h = rnext[h]
                if h == first:
                    break
            h = rprev[first]
            while True:
                back.append(label[head[h]])
                if h == first:
                    break
                h = rprev[h]
        assert back == ring[::-1]
        out[label[v]] = ring
    return out


def edge_set(he):
    """The record's edges as frozensets of labels, each edge once."""
    label = he.label
    edges = [frozenset((label[he.tail[h]], label[he.head[h]])) for h in range(0, len(he.head), 2)]
    assert len(set(edges)) == len(edges)
    return set(edges)


def check_band_port(G, heavy, level, l0):
    """The port against networkx on one band; returns the band's cycle."""
    tri = reference_band_triangulation(G, heavy, level, l0)
    he = _band_rotation(G, heavy, level, l0)
    want = reference_band_cycle_shrink(G, heavy, level, l0)
    assert _band_cycle_shrink(G, heavy, level, l0) == want
    if tri is None:
        assert he is None and want is None
        return None
    _triangulate(he)
    check_half_edges(he)
    assert {frozenset(e) for e in tri.edges()} == edge_set(he)
    assert rotation_lists(he) == {v: list(tri.neighbors_cw_order(v)) for v in tri}
    assert _balanced_fundamental_cycle(he, [0] + [G.weights[v] for v in heavy]) == want
    return want


def whole_band(G):
    """(heavy, level, l0) making the band all of G but vertex 0, the root."""
    level, _, _ = bfs_levels(G, 0)
    return list(range(1, G.n)), level, 0


class TestBandCyclePort:
    """The rotation-system triangulation and cycle scan give what networkx's
    ``triangulate_embedding`` and ``traverse_face`` gave."""

    def test_bands_of_generated_graphs(self, monkeypatch):
        # one sweep the size of the many-small benchmark workload: graphs of
        # 50-3000 vertices through the whole pipeline at all three betas;
        # every band LT meets is compared, the ones where no cycle balances
        # (None) included
        bands = []
        real = atsep.planar._band_cycle_shrink

        def recording(*args):
            bands.append(args)
            return real(*args)

        monkeypatch.setattr(atsep.planar, "_band_cycle_shrink", recording)
        rng = random.Random(3)
        modes = [("unit",), ("uniform", 0, 9), ("single_heavy", "0.7")]
        for seed in range(90):
            n = round(50 * 60 ** (seed / 89))
            spec = GenSpec(n=n, r=rng.randint(0, min(64, n)), seed=seed,
                           weight_mode=modes[seed % 3])
            beta = (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))[seed // 3 % 3]
            separate(generate(spec), beta)
        monkeypatch.undo()
        cycles = [check_band_port(*band) for band in bands]
        assert len(bands) >= 30
        assert sum(cycle is None for cycle in cycles) >= 1
        assert sum(cycle is not None for cycle in cycles) >= 30

    def test_weighted_grid(self):
        G = grid_graph(7, 6)
        G = build_graph(G.n, list(G.edges()), [random.Random(v).randint(0, 9) for v in range(G.n)])
        assert check_band_port(G, *whole_band(G)) is not None

    def test_cut_vertices_and_pendant_trees(self):
        # two 6-cycles joined at vertex 4 with pendant trees on both: the
        # 2-connecting pass has cut vertices to link across
        edges = [(0, 1), (0, 2)] + [(1 + i, 1 + (i + 1) % 6) for i in range(6)]
        edges += [(4, 7)] + [(7 + i, 7 + (i + 1) % 5) for i in range(5)]
        edges += [(3, 12), (12, 13), (12, 14), (9, 15), (15, 16), (10, 17)]
        G = build_graph(18, edges, list(range(1, 19)))
        heavy, level, l0 = whole_band(G)
        assert list(nx.articulation_points(reference_band_graph(G, heavy, level, l0)))
        assert check_band_port(G, heavy, level, l0) is not None

    def test_band_of_two_nodes_is_none(self):
        G = path(3)
        level, _, _ = bfs_levels(G, 0)
        assert _band_rotation(G, [1], level, 0) is None
        assert check_band_port(G, [1], level, 0) is None


def shuffled(G, rng):
    """G with its labels, node order, edge order and edge directions shuffled."""
    label = list(range(G.number_of_nodes()))
    rng.shuffle(label)
    nodes = list(G)
    rng.shuffle(nodes)
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in G.edges()]
    rng.shuffle(edges)
    H = nx.Graph()
    H.add_nodes_from(label[v] for v in nodes)
    H.add_edges_from((label[u], label[v]) for u, v in edges)
    return H


def check_lr_port(G):
    """``_lr_rotation`` against ``nx.check_planarity`` on the nx.Graph G:
    the same verdict and, if planar, the same node order, clockwise ring
    and start neighbour at every vertex. ``_lr_test`` alone gives the
    same verdict. Returns the verdict."""
    nodes = list(G)
    at = {v: i for i, v in enumerate(nodes)}
    adj = [[at[w] for w in G[v]] for v in nodes]
    he = _lr_rotation(nodes, adj)
    ok, emb = nx.check_planarity(G)
    assert (_lr_test(adj) is not None) == ok
    if not ok:
        assert he is None
        return False
    assert he.label == list(emb)
    check_half_edges(he)
    assert edge_set(he) == {frozenset(e) for e in G.edges()}
    rings = rotation_lists(he)  # clockwise with rnext, counter-clockwise with rprev
    for i, v in enumerate(nodes):
        ring = list(emb.neighbors_cw_order(v))
        assert rings[v] == ring
        start = he.start[i]
        assert (he.label[he.head[start]] if start >= 0 else None) == (ring[0] if ring else None)
    return True


class TestLrRotation:
    """The port of networkx's left-right planarity test gives networkx's
    verdict and, on a planar graph, networkx's embedding."""

    def test_planar_graphs(self):
        rng = random.Random(5)
        for _ in range(300):
            G = stacked_triangulation(rng.randint(3, 60), rng)
            edges = list(G.edges())
            rng.shuffle(edges)
            G.remove_edges_from(edges[:rng.randint(0, len(edges) // 2)])
            assert check_lr_port(shuffled(G, rng))

    def test_non_planar_graphs(self):
        rng = random.Random(6)
        tested = 0  # rejected by the LR test itself, not by m > 3n - 6
        for _ in range(300):
            n = rng.randint(6, 60)
            G = stacked_triangulation(n, rng)
            edges = list(G.edges())
            rng.shuffle(edges)
            G.remove_edges_from(edges[:rng.randint(0, len(edges) // 3)])
            while nx.check_planarity(G)[0]:
                u, v = rng.sample(range(n), 2)
                G.add_edge(u, v)
            assert not check_lr_port(shuffled(G, rng))
            tested += G.number_of_edges() <= 3 * n - 6
        assert tested >= 100

    def test_k5_k33_and_small_graphs(self):
        assert not check_lr_port(nx.complete_graph(5))
        assert not check_lr_port(nx.complete_bipartite_graph(3, 3))
        assert not check_lr_port(nx.petersen_graph())
        for G in (nx.empty_graph(1), nx.empty_graph(4), nx.path_graph(2),
                  nx.complete_graph(4), nx.wheel_graph(7)):
            assert check_lr_port(G)

    def test_band_of_ten_thousand_nodes(self):
        # the iterative DFS, the triangulation and the scan at the size of
        # core-2k's bands
        G = grid_graph(100, 100)
        heavy, level, l0 = whole_band(G)
        B = reference_band_graph(G, heavy, level, l0)
        ok, emb = nx.check_planarity(B)
        he = _band_rotation(G, heavy, level, l0)
        assert ok and he.label == list(emb)
        assert rotation_lists(he) == {v: list(emb.neighbors_cw_order(v)) for v in emb}
        assert check_band_port(G, heavy, level, l0) is not None

    def test_weighted_subdivided_stacked_band(self):
        # core-2k/1/0's shape: a stacked triangulation whose edges are
        # about half subdivided, as compressed paths subdivide core edges,
        # about 5,000 band nodes with weights
        rng = random.Random(11)
        core = stacked_triangulation(2000, rng)
        n, edges = core.number_of_nodes(), []
        for u, v in core.edges():
            if rng.random() < 0.5:
                edges += [(u, n), (n, v)]
                n += 1
            else:
                edges.append((u, v))
        G = build_graph(n, edges, [rng.randint(0, 20) for _ in range(n)])
        heavy, level, l0 = whole_band(G)
        assert 4500 <= len(heavy) <= 5500
        assert check_band_port(G, heavy, level, l0) is not None


class TestRowOrderInvariance:
    """The CSR rows follow the input's edge order. Levels, the kernel and
    components must not depend on it; only the band's embedding may."""

    @staticmethod
    def twins(seed):
        """One weighted graph built from its edge list and from a shuffled,
        endpoint-flipped copy of it, whose rows differ."""
        rng = random.Random(seed)
        H = generate(GenSpec(n=rng.randint(80, 400), r=rng.randint(8, 80), seed=seed))
        edges = list(H.edges())
        weights = [rng.randint(0, 9) for _ in range(H.n)]
        mixed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(mixed)
        G1, G2 = build_graph(H.n, edges, weights), build_graph(H.n, mixed, weights)
        assert any(row(G1, v) != row(G2, v) for v in range(H.n))
        return G1, G2, rng

    @pytest.mark.parametrize("seed", range(6))
    def test_levels_and_kernel(self, seed):
        G1, G2, _ = self.twins(seed)
        level1, _, weights1 = bfs_levels(G1, 0)
        level2, _, weights2 = bfs_levels(G2, 0)
        assert level1 == level2
        assert weights1 == weights2
        kernel = _planarity_kernel(G1)
        assert kernel
        assert _planarity_kernel(G2) == kernel

    @pytest.mark.parametrize("form", ["scalar", "array"])
    def test_components_with_removed_set(self, monkeypatch, form):
        # the twins have 80 to 400 vertices, either side of the threshold
        monkeypatch.setattr(atsep.graph, "_ARRAY_MIN_N", 10**9 if form == "scalar" else 0)
        for seed in range(6):
            G1, G2, rng = self.twins(seed)
            removed = set(rng.sample(range(G1.n), G1.n // 10))
            comp = connected_components(G1, removed=removed).tolist()
            assert max(comp) > 0
            assert connected_components(G2, removed=removed).tolist() == comp

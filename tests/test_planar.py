"""Planar separator module: BFS levels and the Lipton-Tarjan separator."""

import gc
import random
from fractions import Fraction
from math import sqrt

import networkx as nx
import pytest

import atsep.graph
import atsep.planar
from atsep.errors import BadBeta, Disconnected, NotPlanar, ZeroTotalWeight
from atsep.gen import GenSpec, generate, grid_graph
from atsep.graph import build_graph, heaviest_component, verify_separator
from atsep.planar import _greedy_balance, _prune_redundant, bfs_levels, lt_separator

from conftest import complete, cycle, path, star


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
    """The embedding step inside lt_separator: one nx.check_planarity call."""

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
    through heaviest_component and verify_separator."""
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
    def test_one_component_pass(self, monkeypatch):
        G = generate(GenSpec(n=400, r=64, seed=2))
        S = set(range(0, G.n, 7))
        _greedy_balance(G, S, Fraction(2, 3), heaviest_component(G, S))
        calls = count_component_passes(monkeypatch, G)
        _prune_redundant(G, S, Fraction(2, 3))
        assert calls == [True]
        assert verify_separator(G, S).passed

    def test_unbalanced_entry_is_internal_fault(self):
        # the one verification on entry checks what the scan relies on
        with pytest.raises(AssertionError, match="balanced"):
            _prune_redundant(path(9), {0}, Fraction(2, 3))

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
            _greedy_balance(G, S, beta, heaviest_component(G, S))
            want = set(S)
            reference_prune(G, want, beta)
            before = len(S)
            _prune_redundant(G, S, beta)
            assert S == want, case
            dropped += before - len(S)
            kept += len(S)
        assert dropped > 0 and kept > 0


class TestLtComponentPasses:
    """Band check, greedy steps and one pruning pass; the band check's
    search stands in for the greedy pass's first one unless a cycle grew S."""

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
        assert calls.count(True) == lt.fallback_steps + (3 if cycle else 2)
        assert verify_separator(G, lt.vertices, beta).passed


def test_band_graphs_freed_without_collection():
    # B, its embedding and the triangulation are emptied before the band
    # shrink returns; what a collection still finds is mostly networkx's
    # own copies inside its planarity test
    G = generate(GenSpec(n=2000, r=600, seed=1))
    gc.collect()
    gc.disable()
    try:
        lt = lt_separator(G)
        freed = gc.collect()
    finally:
        gc.enable()
    assert lt.cycle_info is not None
    assert freed <= 12000

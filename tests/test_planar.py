"""Planar separator module: BFS levels and the Lipton-Tarjan separator."""

from fractions import Fraction
from math import sqrt

import networkx as nx
import pytest

import atsep.graph
from atsep.errors import BadBeta, Disconnected, NotPlanar, ZeroTotalWeight
from atsep.gen import GenSpec, generate, grid_graph
from atsep.graph import build_graph, verify_separator
from atsep.planar import bfs_levels, lt_separator

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

"""Planar separator module: embedding, triangulation, levels, Lipton-Tarjan."""

from fractions import Fraction
from math import sqrt

import pytest

from atsep.errors import BadBeta, Disconnected, NotPlanar, TooSmall, ZeroTotalWeight
from atsep.gen import grid_graph
from atsep.graph import build_graph, verify_separator
from atsep.pipeline import compute_spanning_tree
from atsep.planar import (
    bfs_levels,
    fundamental_cycle_separator,
    lt_separator,
    planar_embed,
    triangulate,
)

from conftest import complete, cycle, path, star


class TestPlanarEmbed:
    def test_k4_has_four_faces(self):
        emb = planar_embed(complete(4))
        assert len(emb.faces) == 4
        assert emb.euler_ok

    def test_c6_has_two_faces(self):
        emb = planar_embed(cycle(6))
        assert len(emb.faces) == 2
        assert emb.euler_ok

    def test_k5_not_planar(self):
        with pytest.raises(NotPlanar):
            planar_embed(complete(5))

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            planar_embed(build_graph(4, [(0, 1), (2, 3)]))

    def test_each_edge_borders_two_face_slots(self):
        emb = planar_embed(grid_graph(3, 3))
        slots = sum(len(f) for f in emb.faces)
        assert slots == 2 * emb.num_edges


class TestTriangulate:
    def test_c4_becomes_maximal(self):
        tri, added = triangulate(planar_embed(cycle(4)))
        assert tri.num_edges == 3 * 4 - 6
        assert len(added) == 2

    def test_k4_unchanged(self):
        tri, added = triangulate(planar_embed(complete(4)))
        assert tri.num_edges == 6
        assert added == []

    def test_grid_reaches_maximal_edge_count(self):
        tri, _ = triangulate(planar_embed(grid_graph(3, 3)))
        assert tri.num_edges == 3 * 9 - 6

    def test_all_faces_are_triangles(self):
        tri, _ = triangulate(planar_embed(cycle(7)))
        assert all(len(f) == 3 for f in tri.faces)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            triangulate(planar_embed(path(2)))


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


class TestFundamentalCycle:
    def band_weight_bound(self, G, S):
        report = verify_separator(G, S)
        return report.passed

    def test_triangle_degenerate(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        tri, _ = triangulate(planar_embed(G))
        T = compute_spanning_tree(G)
        C = fundamental_cycle_separator(tri, T, G.weights)
        assert C == {0, 1, 2}

    def test_triangulated_c4(self):
        G = cycle(4)
        tri, added = triangulate(planar_embed(G))
        full = build_graph(4, list(G.edges()) + added)
        T = compute_spanning_tree(full)
        C = fundamental_cycle_separator(tri, T, full.weights)
        assert len(C) == 3
        assert verify_separator(full, C).passed

    def test_wheel(self):
        # hub 0 with a 5-cycle rim; spanning tree is the star at the hub
        rim = [(i, i % 5 + 1) for i in range(1, 6)]
        G = build_graph(6, [(0, v) for v in range(1, 6)] + rim)
        tri, added = triangulate(planar_embed(G))
        full = build_graph(6, list(G.edges()) + added)
        T = compute_spanning_tree(full, root=0)
        C = fundamental_cycle_separator(tri, T, full.weights)
        assert len(C) <= 3
        assert verify_separator(full, C).passed

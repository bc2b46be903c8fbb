"""Core graph model: construction, components, separator verification."""

import dataclasses
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from atsep.errors import BadVertexId, DuplicateEdge, Overflow, SelfLoop
from atsep.gen import GenSpec, generate
from atsep.graph import (
    MAX_TOTAL_WEIGHT,
    build_graph,
    connected_components,
    is_connected,
    verify_separator,
)
from atsep.pipeline import separate
import atsep.graph

from build_graph_reference import reference_build_graph
from conftest import cycle, path, star


class TestBuildGraph:
    def test_triangle_has_zero_excess(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert G.n == 3 and G.m == 3
        assert G.excess == 0

    def test_tree_has_excess_minus_one(self):
        G = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert G.excess == -1

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (0, 1), (1, 2)])

    def test_duplicate_edge_rejected_reversed(self):
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph(2, [(1, 1)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(BadVertexId):
            build_graph(2, [(0, 2)])

    def test_negative_weight_rejected(self):
        with pytest.raises(Overflow):
            build_graph(2, [(0, 1)], [1, -1])

    def test_total_weight_overflow_rejected(self):
        with pytest.raises(Overflow):
            build_graph(2, [(0, 1)], [MAX_TOTAL_WEIGHT, 1])

    def test_adjacency_is_symmetric(self):
        G = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        for u in range(G.n):
            for v in G.adjacency[u]:
                assert u in G.adjacency[v]

    def test_default_weights_are_unit(self):
        G = build_graph(3, [(0, 1)])
        assert G.weights == [1, 1, 1]
        assert G.total_weight == 3

    def test_edges_iterates_each_edge_once(self):
        G = build_graph(4, [(2, 0), (3, 1), (0, 1)])
        assert sorted(G.edges()) == [(0, 1), (0, 2), (1, 3)]


def _outcome(build, n, edges, weights):
    try:
        return build(n, edges, weights)
    except Exception as exc:
        return type(exc), str(exc)


def _random_case(rng):
    """A random edge list and weights, with zero to three faults injected."""
    n = rng.randint(0, 12)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(rng.randint(0, 6)):
        if n >= 2:
            u, v = rng.sample(range(n), 2)
            if (u, v) not in edges and (v, u) not in edges:
                edges.append((u, v))
    rng.shuffle(edges)
    weights = None if rng.random() < 0.2 else [rng.randint(0, 9) for _ in range(n)]
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        fault = rng.choice(("range", "loop", "dup", "dup-rev", "neg", "huge", "count"))
        at = rng.randint(0, len(edges))
        if fault == "range":
            edges.insert(at, rng.choice(((0, n), (-1, 0), (n, n + 1), (0, 2**64))))
        elif fault == "loop" and n:
            v = rng.randrange(n)
            edges.insert(at, (v, v))
        elif fault.startswith("dup") and edges:
            u, v = rng.choice(edges)
            edges.insert(at, (v, u) if fault == "dup-rev" else (u, v))
        elif fault in ("neg", "huge") and n:
            weights = weights or [1] * n
            weights[rng.randrange(n)] = -rng.randint(1, 5) if fault == "neg" else 2**64
        elif fault == "count":
            weights = (weights or [1] * n) + [1]
    return n, edges, weights


class TestBuildGraphParity:
    """build_graph against the loop it replaced (tests/build_graph_reference.py)."""

    def test_random_inputs_with_faults(self):
        rng = random.Random(5)
        valid = 0
        for _ in range(2000):
            n, edges, weights = _random_case(rng)
            want = _outcome(reference_build_graph, n, list(edges), weights)
            got = _outcome(build_graph, n, list(edges), weights)
            if isinstance(want, tuple) and isinstance(want[0], type):
                assert got == want, (n, edges, weights)
            else:
                valid += 1
                adjacency, ref_weights = want
                assert got.adjacency == adjacency
                assert got.weights == ref_weights
        assert 200 < valid < 1800

    def test_edge_array_matches_edge_list(self):
        rng = random.Random(5)
        compared = 0
        for _ in range(2000):
            n, edges, weights = _random_case(rng)
            if any(not -(2**63) <= x < 2**63 for e in edges for x in e):
                continue  # no int64 array holds these
            compared += 1
            as_array = np.array(edges, dtype=np.int64).reshape(-1, 2)
            want = _outcome(build_graph, n, list(edges), weights)
            got = _outcome(build_graph, n, as_array, weights)
            if isinstance(want, tuple):
                assert got == want, (n, edges, weights)
            else:
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.indices, want.indices)
                assert got.weights == want.weights
        assert compared > 1500

    def test_huge_weight_is_overflow(self):
        with pytest.raises(Overflow, match="total weight exceeds 64 bits"):
            build_graph(3, [(0, 1)], [1, 2**64, 1])
        with pytest.raises(Overflow, match="negative weight -1 at vertex 0"):
            build_graph(2, [(0, 1)], [-1, 2**64])

    @pytest.mark.parametrize(
        "weights, at",
        [
            ([1.5, 2, 3], "1.5 at vertex 0"),
            ([1, Decimal("2.5"), 3], "Decimal('2.5') at vertex 1"),
            ([1, 2, Fraction(1, 2)], "Fraction(1, 2) at vertex 2"),
            ([1, "2", 3], "'2' at vertex 1"),
            ([2.0, 2, 3], "2.0 at vertex 0"),
        ],
    )
    def test_non_integer_weight_is_overflow(self, weights, at):
        # numpy would truncate it in weight_array while weights kept it
        with pytest.raises(Overflow, match=re.escape(f"non-integer weight {at}")):
            build_graph(3, [(0, 1), (1, 2)], weights)

    def test_first_bad_weight_in_input_order(self):
        with pytest.raises(Overflow, match="negative weight -1 at vertex 0"):
            build_graph(2, [(0, 1)], [-1, 0.5])
        with pytest.raises(Overflow, match="non-integer weight 0.5 at vertex 0"):
            build_graph(2, [(0, 1)], [0.5, -1])

    def test_numpy_integer_weights_accepted(self):
        weights = [np.int64(1), np.int32(2), np.uint8(3)]
        G = build_graph(3, [(0, 1), (1, 2)], weights)
        assert G.weight_array.tolist() == [1, 2, 3] and G.total_weight == 6

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_numpy_integer_total_that_wraps_is_overflow(self):
        # int64 scalars sum to -2**63 in numpy's fixed width
        with pytest.raises(Overflow, match="total weight exceeds 64 bits"):
            build_graph(2, [(0, 1)], [np.int64(2**62), np.int64(2**62)])
        with pytest.raises(Overflow, match="total weight exceeds 64 bits"):
            build_graph(2, [(0, 1)], [np.uint64(2**63), np.uint64(2**63)])

    def test_edge_generator_and_tiny_graphs(self):
        G = build_graph(4, ((v, v + 1) for v in range(3)))
        assert G.adjacency == [[1], [0, 2], [1, 3], [2]]
        assert (build_graph(0, []).n, build_graph(0, []).m) == (0, 0)
        G = build_graph(1, [], [7])
        assert (G.n, G.m, G.total_weight, G.adjacency) == (1, 0, 7, [[]])


class TestFrozenGraph:
    def test_fields_cannot_be_assigned(self):
        G = cycle(5)
        for name in ("n", "indptr", "indices", "weights", "weight_array", "total_weight"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(G, name, getattr(G, name))

    def test_arrays_are_read_only(self):
        G = cycle(5)
        for array in (G.indptr, G.indices, G.weight_array):
            with pytest.raises(ValueError):
                array[0] = 3

    def test_counts_match_a_recount(self):
        G = build_graph(6, [(0, 1), (1, 2), (3, 4), (2, 0)], [3, 1, 4, 1, 5, 9])
        assert G.m == sum(len(a) for a in G.adjacency) // 2 == 4
        assert G.total_weight == sum(G.weights) == 23
        assert G.weight_array.tolist() == G.weights

    def test_separate_leaves_the_graph_untouched(self):
        H = generate(GenSpec(n=20_000, r=16, seed=4))
        G = build_graph(H.n, list(H.edges()), H.weights)
        before = dict(vars(G))
        assert separate(G).repairs == 0
        assert vars(G).keys() == before.keys()
        assert all(vars(G)[k] is v for k, v in before.items())


class TestConnectedComponents:
    def test_path_is_one_component(self):
        assert connected_components(path(3)) == [0, 0, 0]

    def test_edgeless_graph_splits(self):
        assert connected_components(build_graph(3, [])) == [0, 1, 2]

    def test_c6_minus_two_opposite_vertices(self):
        comp = connected_components(cycle(6), removed={0, 3})
        assert comp[0] == -1 and comp[3] == -1
        assert comp[1] == comp[2] != comp[4] == comp[5]

    def test_component_ids_follow_lowest_member(self):
        G = build_graph(5, [(3, 4), (1, 2)])
        assert connected_components(G) == [0, 1, 1, 2, 2]

    def test_sparse_path_matches_sequential(self, monkeypatch):
        G = cycle(50)
        want = connected_components(G, removed={0, 10, 30})
        monkeypatch.setattr(atsep.graph, "_SCIPY_MIN_N", 1)
        assert connected_components(G, removed={0, 10, 30}) == want

    def test_is_connected(self):
        assert is_connected(path(4))
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
        assert is_connected(build_graph(0, []))


class TestVerifySeparator:
    def test_path_middle_vertex_passes(self):
        report = verify_separator(path(3), {1}, Fraction(2, 3))
        assert report.passed
        assert sorted(report.component_weights) == [1, 1]

    def test_c6_single_vertex_fails(self):
        report = verify_separator(cycle(6), {0}, Fraction(2, 3))
        assert not report.passed
        assert report.max_component_weight == 5

    def test_c6_opposite_pair_passes(self):
        # [DERIVED] C6 - {0,3} leaves components {1,2} and {4,5}
        report = verify_separator(cycle(6), {0, 3}, Fraction(2, 3))
        assert report.passed
        assert sorted(report.component_weights) == [2, 2]

    def test_weight_partition_identity(self):
        G = build_graph(6, [(0, 1), (1, 2), (3, 4)], [3, 1, 4, 1, 5, 9])
        for S in ({}, {1}, {0, 4}, {2, 3, 5}):
            report = verify_separator(G, S)
            assert sum(report.component_weights) + sum(G.weights[v] for v in S) == G.total_weight

    def test_empty_separator_checks_heaviest_component(self):
        G = build_graph(3, [(0, 1)], [1, 1, 5])
        assert verify_separator(G, set(), Fraction(5, 7)).passed
        assert not verify_separator(G, set(), Fraction(2, 3)).passed

    def test_out_of_range_separator_vertex(self):
        with pytest.raises(BadVertexId):
            verify_separator(path(3), {7})

    def test_exact_boundary_counts_as_pass(self):
        # max component weight == beta * W exactly
        report = verify_separator(path(3), {2}, Fraction(2, 3))
        assert report.max_component_weight == 2
        assert report.passed

    def test_star_center_removal(self):
        report = verify_separator(star(7), {0})
        assert report.passed
        assert report.component_weights == [1] * 6

"""Core graph model: construction, components, separator verification."""

import dataclasses
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atsep.errors import BadVertexId, DuplicateEdge, Overflow, SelfLoop
from atsep.gen import GenSpec, generate, grid_graph
from atsep.graph import (
    MAX_TOTAL_WEIGHT,
    build_graph,
    connected_components,
    is_connected,
    verify_separator,
)
from atsep.pipeline import compute_spanning_tree, separate
from atsep.planar import bfs_levels
import atsep.graph

from build_graph_reference import reference_build_graph
from conftest import chained, cycle, path, row, star


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
            for v in row(G, u):
                assert u in row(G, v)

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
                assert [row(got, v) for v in range(n)] == adjacency
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
        assert [row(G, v) for v in range(4)] == [[1], [0, 2], [1, 3], [2]]
        assert (build_graph(0, []).n, build_graph(0, []).m) == (0, 0)
        G = build_graph(1, [], [7])
        assert (G.n, G.m, G.total_weight, row(G, 0)) == (1, 0, 7, [])


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
        assert G.m == sum(len(row(G, v)) for v in range(G.n)) // 2 == 4
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
        assert connected_components(path(3)).tolist() == [0, 0, 0]

    def test_edgeless_graph_splits(self):
        assert connected_components(build_graph(3, [])).tolist() == [0, 1, 2]

    def test_c6_minus_two_opposite_vertices(self):
        comp = connected_components(cycle(6), removed={0, 3})
        assert comp[0] == -1 and comp[3] == -1
        assert comp[1] == comp[2] != comp[4] == comp[5]

    def test_component_ids_follow_lowest_member(self):
        G = build_graph(5, [(3, 4), (1, 2)])
        assert connected_components(G).tolist() == [0, 1, 1, 2, 2]

    def test_array_form_matches_scalar(self):
        G = cycle(50)
        assert G.n < atsep.graph._ARRAY_MIN_N
        scalar, array = both_forms(G, {0, 10, 30})
        assert array.tolist() == scalar.tolist()
        assert scalar.tolist() == [-1] + [0] * 9 + [-1] + [1] * 19 + [-1] + [2] * 19

    @pytest.mark.parametrize("n", [50, 3000])
    @pytest.mark.parametrize("bad", ["minus-one", "n"])
    def test_out_of_range_removed_vertex(self, n, bad):
        # below and above the threshold alike: -1 must not wrap to n - 1
        G = path(n)
        assert (n >= atsep.graph._ARRAY_MIN_N) == (n == 3000)
        vertex = -1 if bad == "minus-one" else n
        with pytest.raises(BadVertexId, match=f"removed vertex {vertex} out of range"):
            connected_components(G, removed={1, vertex})

    def test_is_connected(self):
        assert is_connected(path(4))
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
        assert is_connected(build_graph(0, []))


def both_forms(G, removed=None):
    """connected_components on G, first as the BFS, then as array passes."""
    out = []
    for threshold in (G.n + 1, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(atsep.graph, "_ARRAY_MIN_N", threshold)
            out.append(connected_components(G, removed))
    return out


def assert_forms_agree(G, removed=None) -> list[int]:
    """Both forms give the same int64 labels, -1 exactly on the removed
    vertices and IDs in order of each component's lowest vertex."""
    scalar, array = both_forms(G, removed)
    assert scalar.dtype == array.dtype == np.int64
    labels = array.tolist()
    assert labels == scalar.tolist()
    assert [v for v, c in enumerate(labels) if c == -1] == sorted(removed or ())
    firsts = list(dict.fromkeys(c for c in labels if c >= 0))
    assert firsts == list(range(len(firsts)))
    return labels


@st.composite
def shuffled_paths_and_cycles(draw):
    """A path or a cycle of up to 600 vertices in a random ID order, so the
    array form's pointer trees run deep, a few removed vertices, and the
    number of pieces left."""
    n = draw(st.integers(min_value=1, max_value=600))
    order = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(order)
    edges = list(zip(order, order[1:]))
    closed = n >= 3 and draw(st.booleans())
    if closed:
        edges.append((order[-1], order[0]))
    removed = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=4))
    kept = [v not in removed for v in order]
    starts = sum(k and not (i and kept[i - 1]) for i, k in enumerate(kept))
    if closed and kept[0] and kept[-1]:
        starts = max(starts - 1, 1)  # the run through the closing edge
    return build_graph(n, edges), removed, starts


def shuffled(G, rng):
    """G with its vertex IDs permuted at random."""
    label = list(range(G.n))
    rng.shuffle(label)
    return build_graph(G.n, [(label[u], label[v]) for u, v in G.edges()])


@st.composite
def near_trees_and_removed_sets(draw):
    """A generated near-tree under shuffled IDs, so that components merge
    in no set order, and a random removed set."""
    n = draw(st.integers(min_value=4, max_value=400))
    r = draw(st.integers(min_value=0, max_value=min(30, 2 * n - 7)))
    G = generate(GenSpec(n=n, r=r, seed=draw(st.integers(min_value=0, max_value=2**32 - 1))))
    G = shuffled(G, draw(st.randoms(use_true_random=False)))
    removed = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n // 3))
    return G, removed


class TestLabellerForms:
    """The array form of connected_components against the BFS, label for
    label, with the threshold forced to either side."""

    @settings(max_examples=100, deadline=None)
    @given(shuffled_paths_and_cycles())
    def test_shuffled_paths_and_cycles(self, case):
        G, removed, pieces = case
        assert max(assert_forms_agree(G, removed), default=-1) + 1 == pieces

    @settings(max_examples=100, deadline=None)
    @given(near_trees_and_removed_sets())
    def test_near_trees_with_removed_sets(self, case):
        assert_forms_agree(*case)

    def test_many_small_shuffled_near_trees(self):
        # an edge whose ends shared a label when it was dropped can end two
        # pointers below the root once that root hooks on; about one of
        # these in fifty leaves such a vertex behind
        rng = random.Random(5)
        for _ in range(1000):
            n = rng.randint(4, 60)
            r = rng.randint(0, min(8, 2 * n - 7))
            G = shuffled(generate(GenSpec(n=n, r=r, seed=rng.randrange(2**32))), rng)
            assert_forms_agree(G, set(rng.sample(range(n), rng.randint(0, n // 3))))

    @pytest.mark.parametrize("n", [2, 5, 300, 3000])
    def test_star_without_its_centre(self, n):
        assert assert_forms_agree(star(n), {0}) == [-1, *range(n - 1)]

    def test_empty_and_edgeless_graphs(self):
        assert assert_forms_agree(build_graph(0, [])) == []
        assert assert_forms_agree(build_graph(0, []), set()) == []
        assert assert_forms_agree(build_graph(300, [])) == list(range(300))
        assert assert_forms_agree(path(300), set(range(300))) == [-1] * 300
        assert assert_forms_agree(path(300), set(range(0, 300, 2))) == [
            -1 if v % 2 == 0 else v // 2 for v in range(300)]

    def test_long_shuffled_path(self):
        rng = random.Random(3)
        order = list(range(100_000))
        rng.shuffle(order)
        G = build_graph(len(order), list(zip(order, order[1:])))
        removed = {order[len(order) // 2]}
        labels = assert_forms_agree(G, removed)
        assert max(labels) == 1


def _bfs_form_cases():
    """(id, graph, root) triples: deep thin layers, tiny fronts, wide ones."""
    rng = random.Random(18)
    for i in range(3):
        # a grid of chains with pendant trees: a deep BFS of thin layers,
        # like the benchmark's subdivided grid core
        G = chained(grid_graph(rng.randint(6, 14), rng.randint(6, 14)).edges(), rng, 1, 60, 200)
        yield f"subdivided-grid-{i}", G, rng.randrange(G.n)
    yield "cycle", cycle(3001), 1500
    n = 4000
    chords = [(0, n // 3), (n // 4, n // 2), (n // 2 + 7, n - 1)]
    yield "path-with-chords", build_graph(n, [(i, i + 1) for i in range(n - 1)] + chords), 0
    for seed in range(4):
        for r in (-1, 16):
            G = generate(GenSpec(n=rng.randint(500, 6000), r=r, seed=seed))
            yield f"gen-r{r}-{seed}", G, rng.randrange(G.n)


_BFS_FORM_CASES = list(_bfs_form_cases())


class TestBfsForms:
    """The scalar and the array step of ``_bfs_layers`` walk the same tree."""

    @pytest.mark.parametrize("G,root", [c[1:] for c in _BFS_FORM_CASES],
                             ids=[c[0] for c in _BFS_FORM_CASES])
    def test_parents_and_layers_agree(self, monkeypatch, G, root):
        seen = []
        # every step an array pass, the measured crossover, every step scalar
        for threshold in (1, atsep.graph._VEC_MIN_FRONTIER, G.n + 1):
            monkeypatch.setattr(atsep.graph, "_VEC_MIN_FRONTIER", threshold)
            parent = compute_spanning_tree(G, root).parent.tolist()
            seen.append((parent, bfs_levels(G, root)))
        assert seen[0] == seen[1] == seen[2]
        parent, (level, levels, _) = seen[0]
        assert parent[root] == root
        for v in range(G.n):
            ups = [u for u in row(G, v) if level[u] == level[v] - 1]
            assert parent[v] == (min(ups) if ups else v)
        assert all(layer == sorted(layer) for layer in levels)

    def test_grids_mix_both_steps(self):
        # the grids are deep, and at the default threshold their walk takes
        # both steps, so its run above is not a copy of either other run
        for name, G, root in _BFS_FORM_CASES:
            if name.startswith("subdivided-grid"):
                sizes = [len(layer) for layer in bfs_levels(G, root)[1]]
                assert len(sizes) > 100
                assert min(sizes) < atsep.graph._VEC_MIN_FRONTIER <= max(sizes)


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

    def test_heaviest_tie_goes_to_lowest_vertex(self):
        # [DERIVED] C6 - {0, 3} leaves {1, 2} and {4, 5}, both of weight 2
        report = verify_separator(cycle(6), {0, 3})
        assert report.heaviest() == [1, 2]
        # a tie on a path, then a heavier component past the lowest vertex
        G = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [3, 1, 9, 2, 2])
        assert verify_separator(G, {2}).heaviest() == [0, 1]
        assert verify_separator(G, {1}).heaviest() == [2, 3, 4]

    def test_heaviest_of_empty_remainder(self):
        report = verify_separator(path(3), {0, 1, 2})
        assert report.component_weights == []
        assert report.heaviest() == []
        assert report.passed

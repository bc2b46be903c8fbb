"""Pipeline stages: compression construction, lifting, repairs, end to end."""

import gc
import random
import subprocess
import sys
import tracemalloc
from collections import Counter, deque
from itertools import accumulate
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import atsep.graph
import atsep.pipeline
import atsep.planar
from atsep.cli import EXIT_OK, main
from atsep.errors import (
    AtsepError,
    BadBeta,
    BadVertexId,
    Disconnected,
    EmptyTerminals,
    EmptyTree,
    NotPlanar,
    ZeroTotalWeight,
)
from atsep.gen import GenSpec, assign_weights, generate, random_tree
from atsep.graph import Graph, SpanningTree, build_graph, verify_separator
from atsep.oracle import (
    min_balanced_separator,
    nearest_in_set_oracle,
    steiner_subtree_oracle,
)
from atsep.pipeline import (
    CompressedGraph,
    Paths,
    _median_cut,
    branch_vertices,
    build_compressed_graph,
    collapse_weights,
    compute_spanning_tree,
    decompose_paths,
    dump_stages,
    extra_edges,
    format_trace,
    heavy_vertex_fixup,
    lift_separator,
    separate,
    steiner_subtree,
    tree_centroid,
)
from atsep.planar import bfs_levels, lt_separator

from centroid_reference import reference_tree_centroid
from conftest import (
    complete,
    collapsed,
    cycle,
    edge_ends,
    path,
    path_lists,
    random_parent_tree,
    row,
    star,
    subdivided,
    theta,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import gen  # noqa: E402
from check import check_separator  # noqa: E402


def bfs_distances(G, root):
    dist = [-1] * G.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in row(G, u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def depths_along_parents(T):
    """Each vertex's number of steps up the parent array to the root."""
    parent = T.parent.tolist()
    depth = [-1] * len(parent)
    depth[T.root] = 0
    for v in range(len(parent)):
        chain = []
        while depth[v] < 0:
            chain.append(v)
            v = parent[v]
            assert len(chain) <= len(parent), "the parent array has a cycle"
        d = depth[v]
        for u in reversed(chain):
            d += 1
            depth[u] = d
    return depth


def check_bfs_tree(G, T):
    """Depth along the parents is the BFS distance, and each parent is the
    vertex's lowest-ID neighbour one layer up."""
    dist = bfs_distances(G, T.root)
    parent = T.parent.tolist()
    assert parent[T.root] == T.root
    assert depths_along_parents(T) == dist
    for v in range(G.n):
        if v != T.root:
            assert parent[v] == min(u for u in row(G, v) if dist[u] == dist[v] - 1)
    return dist


class TestSpanningTree:
    def test_triangle_from_root(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        T = compute_spanning_tree(G, root=0)
        assert sorted(T.tree_edges()) == [(0, 1), (0, 2)]

    def test_path_is_its_own_tree(self):
        G = path(4)
        T = compute_spanning_tree(G, root=0)
        assert sorted(T.tree_edges()) == [(0, 1), (1, 2), (2, 3)]
        assert T.parent.tolist() == [0, 0, 1, 2]

    def test_disconnected_raises(self):
        # every vertex but the root is a leaf, and 2-3 is a K2 apart
        G = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected, match="only 2 of 4 vertices reachable from 0"):
            compute_spanning_tree(G)
        with pytest.raises(Disconnected, match="only 2 of 4 vertices reachable from 2"):
            compute_spanning_tree(G, root=2)
        # K2s apart beside leaves the walk does reach
        G = build_graph(9, [(0, 1), (0, 2), (0, 3), (4, 5), (6, 7), (3, 8)])
        with pytest.raises(Disconnected, match="only 5 of 9 vertices reachable from 0"):
            compute_spanning_tree(G)

    # a hung leaf counts as reached only if its one neighbour is
    @pytest.mark.parametrize("n,edges,root,reached", [
        pytest.param(5, [(0, 1), (1, 2), (3, 4)], 0, 3, id="path and K2"),
        pytest.param(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], 0, 3,
                     id="triangle and path"),
        pytest.param(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], 3, 3,
                     id="from the path's leaf"),
        pytest.param(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7)], 0, 3,
                     id="triangle, path and K2"),
        pytest.param(8, [(0, 1), (1, 2), (0, 2), (1, 7), (3, 4), (3, 5), (3, 6)], 2, 4,
                     id="triangle with a leaf and a star"),
        pytest.param(3, [(1, 2)], 0, 1, id="isolated root"),
    ])
    def test_disconnected_count_is_exact(self, n, edges, root, reached):
        G = build_graph(n, edges)
        message = f"only {reached} of {n} vertices reachable from {root}"
        for call in (compute_spanning_tree, bfs_levels, separate):
            with pytest.raises(Disconnected, match=message) as info:
                call(G, root=root)
            assert (info.value.reached, info.value.n, info.value.root) == (reached, n, root)

    @pytest.mark.parametrize("G,root", [
        pytest.param(path(1), 0, id="n=1"),
        pytest.param(path(2), 0, id="n=2"),
        pytest.param(path(2), 1, id="n=2 from 1"),
        pytest.param(path(6), 0, id="root of degree 1"),
        pytest.param(path(7), 3, id="path"),
        pytest.param(star(9), 0, id="star at its centre"),
        pytest.param(star(9), 5, id="star at a leaf"),
        pytest.param(build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 2)]), 2,
                     id="leaves next to the root"),
        pytest.param(build_graph(6, [(5, 4), (4, 3), (3, 5), (3, 1), (1, 2), (4, 0)]), 2,
                     id="root a leaf, leaf of lowest ID"),
    ])
    def test_leaf_cases(self, G, root):
        check_bfs_tree(G, compute_spanning_tree(G, root=root))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=4, max_value=60), r=st.integers(min_value=0, max_value=8),
           leaves=st.integers(min_value=0, max_value=40), data=st.data())
    def test_near_trees_with_pendant_leaves(self, n, r, leaves, data):
        # pendant leaves on random vertices, under IDs shuffled so that the
        # leaves come anywhere in the ID order, from a random root
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        G = generate(GenSpec(n=n, r=min(r, 2 * n - 7), seed=seed))
        rng = random.Random(seed)
        edges = list(G.edges()) + [(rng.randrange(v), v) for v in range(n, n + leaves)]
        ids = list(range(n + leaves))
        rng.shuffle(ids)
        H = build_graph(n + leaves, [(ids[u], ids[v]) for u, v in edges])
        check_bfs_tree(H, compute_spanning_tree(H, root=data.draw(st.sampled_from(ids))))

    def test_walk_skips_the_hung_leaves(self, monkeypatch):
        # the spanning tree's walk yields every vertex but the leaves, which
        # it hangs before the walk; LT's levels and the centroid's walk
        # still yield all n. Vertex 0 is a leaf here, and as the root it
        # is walked.
        G = generate(GenSpec(n=200_000, r=16, seed=1))
        degree = np.diff(G.indptr)
        assert degree[0] == 1
        hung = int(np.count_nonzero(degree[1:] == 1))
        assert hung > 0.45 * G.n
        walk = atsep.graph._bfs_layers
        yielded = []

        def counted(*args, **kwargs):
            yielded.append(0)
            for layer in walk(*args, **kwargs):
                yielded[-1] += len(layer)
                yield layer

        monkeypatch.setattr(atsep.pipeline, "_bfs_layers", counted)
        monkeypatch.setattr(atsep.planar, "_bfs_layers", counted)
        T = compute_spanning_tree(G)
        level = bfs_levels(G, 0)[0]
        tree_centroid(G)
        assert yielded == [G.n - hung, G.n, G.n]
        parent = np.empty(G.n, dtype=np.int64)
        for _ in walk(G, 0, parent):
            pass
        assert np.array_equal(T.parent, parent)
        level = np.array(level)
        assert (level[1:] == level[T.parent[1:]] + 1).all()

    def test_parents_by_hand(self):
        # 3 is found by 1 and by 2 at once: the lower ID wins
        G = build_graph(6, [(0, 2), (0, 1), (2, 3), (1, 3), (2, 4), (4, 5), (3, 5)])
        assert compute_spanning_tree(G).parent.tolist() == [0, 0, 0, 1, 2, 3]
        assert compute_spanning_tree(G, root=5).parent.tolist() == [1, 3, 3, 5, 5, 5]
        assert compute_spanning_tree(path(1)).parent.tolist() == [0]

    def test_parent_is_lowest_neighbour_one_layer_up(self):
        rng = random.Random(12)
        for _ in range(20):
            G = random_parent_tree(rng, rng.randint(1, 400))
            check_bfs_tree(G, compute_spanning_tree(G, root=rng.randrange(G.n)))
        for i in range(20):
            n = rng.randint(4, 2500)
            G = generate(GenSpec(n=n, r=rng.randint(1, min(40, 2 * n - 7)), seed=i))
            check_bfs_tree(G, compute_spanning_tree(G, root=rng.randrange(n)))
        # double stars with chords: from any root some layer holds at least
        # twice the frontier size from which the array step runs
        wide = atsep.graph._VEC_MIN_FRONTIER
        for _ in range(3):
            n = rng.randint(5 * wide, 10 * wide)
            edges = {(rng.randrange(min(v, 2)), v) for v in range(1, n)}
            while len(edges) < n + 20:
                u, v = sorted(rng.sample(range(2, n), 2))
                edges.add((u, v))
            G = build_graph(n, sorted(edges))
            dist = check_bfs_tree(G, compute_spanning_tree(G, root=rng.randrange(n)))
            assert max(Counter(dist).values()) >= 2 * wide

    def test_edge_count_and_reachability(self):
        rng = random.Random(11)
        for _ in range(20):
            G = random_parent_tree(rng, rng.randint(1, 30))
            T = compute_spanning_tree(G)
            assert len(T.tree_edges()) == G.n - 1
            assert max(depths_along_parents(T)) < G.n


class TestExtraEdges:
    def test_triangle(self):
        G = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        T = compute_spanning_tree(G)
        assert extra_edges(G, T).tolist() == [[1, 2]]

    def test_theta_has_two_extra_edges(self):
        G = theta()
        R = extra_edges(G, compute_spanning_tree(G))
        assert len(R) == G.excess + 1 == 2

    def test_tree_has_none(self):
        G = path(5)
        assert len(extra_edges(G, compute_spanning_tree(G))) == 0

    def test_count_identity_random(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(3, 20)
            G = random_parent_tree(rng, n)
            extra = set()
            while len(extra) < min(3, n - 2):
                u, v = rng.sample(range(n), 2)
                if not G.has_edge(u, v) and (min(u, v), max(u, v)) not in extra:
                    extra.add((min(u, v), max(u, v)))
            G = build_graph(n, list(G.edges()) + sorted(extra))
            R = extra_edges(G, compute_spanning_tree(G))
            assert len(R) == G.m - G.n + 1

    @pytest.mark.parametrize("n,r,seed", [(50, 0, 1), (400, 9, 2), (3000, 64, 3), (5000, 700, 4)])
    def test_rows_format_and_order(self, n, r, seed):
        G = generate(GenSpec(n=n, r=r, seed=seed))
        T = compute_spanning_tree(G, root=seed)
        R = extra_edges(G, T)
        assert R.dtype == np.int64 and R.shape == (G.m - G.n + 1, 2)
        tree = set(T.tree_edges())
        keys = []
        for u, v in R.tolist():
            assert u < v and (u, v) not in tree
            keys.append((u, row(G, u).index(v)))
        assert keys == sorted(keys)
        assert set(map(tuple, R.tolist())) | tree == set(G.edges())

    def test_parent_stored_as_int64(self):
        assert SpanningTree(root=0, parent=[0, 0, 1]).parent.dtype == np.int64


class TestSteinerSubtree:
    def test_path_tree_two_terminals(self):
        T = SpanningTree(root=0, parent=[0, 0, 1, 2, 3])
        T1 = steiner_subtree(T, {1, 3})
        assert T1.vertices() == [1, 2, 3]

    def test_star_two_leaves(self):
        T = SpanningTree(root=0, parent=[0, 0, 0, 0])
        T1 = steiner_subtree(T, {1, 2})
        assert T1.vertices() == [0, 1, 2]

    def test_single_terminal(self):
        T = SpanningTree(root=0, parent=[0, 0, 1])
        assert steiner_subtree(T, {2}).vertices() == [2]

    def test_empty_terminals_raises(self):
        T = SpanningTree(root=0, parent=[0, 0])
        with pytest.raises(EmptyTerminals):
            steiner_subtree(T, set())

    def test_matches_pairwise_path_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 12)
            G = random_parent_tree(rng, n)
            T = compute_spanning_tree(G)
            terms = rng.sample(range(n), rng.randint(1, n))
            T1 = steiner_subtree(T, terms)
            assert set(T1.vertices()) == steiner_subtree_oracle(T, terms)

    def test_leaves_are_terminals(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(3, 15)
            G = random_parent_tree(rng, n)
            T = compute_spanning_tree(G)
            terms = set(rng.sample(range(n), rng.randint(2, n)))
            T1 = steiner_subtree(T, terms)
            for v in T1.vertices():
                if T1.degree(v) <= 1:
                    assert v in terms


class TestBranchSet:
    def test_star_with_three_terminal_leaves(self):
        T = SpanningTree(root=0, parent=[0, 0, 0, 0])
        T1 = steiner_subtree(T, {1, 2, 3})
        U = branch_vertices(T1, {1, 2, 3})
        assert U == [0, 1, 2, 3]
        assert len(U) <= 2 * 3

    def test_path_subtree(self):
        T = SpanningTree(root=0, parent=[0, 0, 1, 2, 3])
        T1 = steiner_subtree(T, {1, 3})
        assert branch_vertices(T1, {1, 3}) == [1, 3]

    def test_size_bound_random(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(2, 25)
            G = random_parent_tree(rng, n)
            T = compute_spanning_tree(G)
            terms = rng.sample(range(n), rng.randint(1, n))
            T1 = steiner_subtree(T, terms)
            U = branch_vertices(T1, terms)
            assert len(U) <= 2 * len(terms)


class TestPathDecomposition:
    def test_star_paths(self):
        T = SpanningTree(root=0, parent=[0, 0, 0, 0])
        T1 = steiner_subtree(T, {1, 2, 3})
        U = branch_vertices(T1, {1, 2, 3})
        Pi = decompose_paths(T1, U)
        assert len(Pi) == len(U) - 1 == 3
        assert Pi.ends.tolist() == [[0, 1], [0, 2], [0, 3]]

    def test_path_with_interior(self):
        T = SpanningTree(root=0, parent=[0, 0, 1, 2, 3])
        T1 = steiner_subtree(T, {1, 3})
        Pi = decompose_paths(T1, branch_vertices(T1, {1, 3}))
        assert path_lists(Pi) == [[1, 2, 3]]

    def test_edge_disjoint_cover(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(3, 25)
            G = random_parent_tree(rng, n)
            T = compute_spanning_tree(G)
            terms = rng.sample(range(n), rng.randint(2, n))
            T1 = steiner_subtree(T, terms)
            U = branch_vertices(T1, terms)
            Pi = path_lists(decompose_paths(T1, U))
            covered = []
            for p in Pi:
                for a, b in zip(p, p[1:]):
                    covered.append((min(a, b), max(a, b)))
                for inner in p[1:-1]:
                    assert inner not in U
            assert sorted(covered) == sorted(
                (min(a, b), max(a, b)) for a, b in T1.edges()
            )
            if len(U) >= 2:
                assert len(Pi) == len(U) - 1


class TestCollapseWeights:
    def test_path_example(self):
        G = path(5)
        T = compute_spanning_tree(G)
        T1 = steiner_subtree(T, {1, 3})
        weights = collapsed(collapse_weights(G, T, T1)).weights
        assert weights == [0, 2, 1, 2, 0]
        assert sum(weights) == 5

    def test_identity_when_subtree_covers_graph(self):
        G = path(4)
        T = compute_spanning_tree(G)
        T1 = steiner_subtree(T, {0, 3})
        cw = collapsed(collapse_weights(G, T, T1))
        assert cw.weights == G.weights
        assert cw.nearest == list(range(4))

    def test_conservation_and_nearest_oracle(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(2, 15)
            G = random_parent_tree(rng, n)
            G = build_graph(n, G.edges(), [rng.randint(0, 9) for _ in range(n)])
            T = compute_spanning_tree(G)
            terms = rng.sample(range(n), rng.randint(1, n))
            T1 = steiner_subtree(T, terms)
            cw = collapsed(collapse_weights(G, T, T1))
            assert sum(cw.weights) == G.total_weight
            assert cw.nearest == nearest_in_set_oracle(T, T1.vertices())

    @staticmethod
    def check_against_oracle(G, terms, root=0):
        T = compute_spanning_tree(G, root=root)
        T1 = steiner_subtree(T, terms)
        cw = collapsed(collapse_weights(G, T, T1))
        assert cw.nearest == nearest_in_set_oracle(T, T1.vertices())
        assert sum(cw.weights) == G.total_weight
        return T, T1

    def test_wide_levels_match_oracle(self):
        # double stars: every vertex hangs off vertex 0 or 1, so from any
        # root some BFS level holds well over a hundred vertices
        rng = random.Random(43)
        for _ in range(3):
            n = rng.randint(300, 600)
            edges = [(v, rng.randrange(min(v, 2))) for v in range(1, n)]
            G = build_graph(n, edges, [rng.randint(0, 9) for _ in range(n)])
            terms = rng.sample(range(n), rng.randint(2, 12))
            T, _ = self.check_against_oracle(G, terms, root=rng.randrange(n))
            assert max(Counter(bfs_distances(G, T.root)).values()) >= 128

    def test_deep_path_matches_oracle(self):
        G = path(500)
        T, _ = self.check_against_oracle(G, {200, 340})
        assert T.parent.tolist() == [0, *range(499)]
        _, T1 = self.check_against_oracle(G, {499})
        assert T1.vertices() == [499]

    @staticmethod
    def nearest_by_walking_up(T, T1):
        """First T1 vertex on each root path, else T1's top; memoized walks."""
        parent = T.parent.tolist()
        member = T1.member.tolist()
        near = [None] * len(parent)
        near[T.root] = T.root if member[T.root] else T1.top
        for v in range(len(parent)):
            chain = []
            while near[v] is None and not member[v]:
                chain.append(v)
                v = parent[v]
            if near[v] is None:
                near[v] = v
            for u in chain:
                near[u] = near[v]
        return near

    @pytest.mark.parametrize("shape", ["cycle", "chorded path"])
    def test_deep_shapes_match_walk_up(self, shape):
        n = 20_000
        rng = random.Random(44)
        weights = [rng.randint(0, 9) for _ in range(n)]
        if shape == "cycle":
            G = cycle(n, weights)
        else:
            chords = [(n - 5000, n - 2), (n - 1000, n - 10), (n - 500, n - 100)]
            G = build_graph(n, [(i, i + 1) for i in range(n - 1)] + chords, weights)
        for root in (0, n // 2):
            T = compute_spanning_tree(G, root=root)
            R = extra_edges(G, T)
            for terms in (edge_ends(R), {n // 3, n // 3 + 700}, {n - 1}):
                T1 = steiner_subtree(T, terms)
                cw = collapsed(collapse_weights(G, T, T1))
                near = self.nearest_by_walking_up(T, T1)
                assert cw.nearest == near
                want = np.bincount(near, weights=weights, minlength=n).astype(np.int64)
                assert cw.weights == want.tolist()
                assert sum(cw.weights) == G.total_weight

    def test_subtree_missing_root_matches_oracle(self):
        # a broom: a 150-vertex handle from the root, then 300 bristles
        # hanging off its far end, some of which carry terminals
        edges = [(i, i + 1) for i in range(149)]
        edges += [(149, 150 + i) for i in range(300)]
        edges += [(150 + i, 450 + i) for i in range(150)]
        G = build_graph(600, edges)
        T, T1 = self.check_against_oracle(G, {455, 470, 599})
        assert not T1.member[T.root]
        assert T1.member[149]


class TestCompressedGraph:
    @staticmethod
    def stages_for(G, weights=None):
        """The compressed graph, U and the paths; ``weights``, a list, gets
        the collapsed weights, which the build takes from the collapse."""
        T = compute_spanning_tree(G)
        R = extra_edges(G, T)
        T1 = steiner_subtree(T, edge_ends(R))
        U = branch_vertices(T1, edge_ends(R))
        Pi = decompose_paths(T1, U)
        cw = collapse_weights(G, T, T1)
        if weights is not None:
            weights += collapsed(cw).weights
        C = build_compressed_graph(U, Pi, R, cw)
        assert cw.weights is None
        return C, U, Pi

    def test_theta_weights_and_size(self):
        C, U, Pi = self.stages_for(theta())
        assert sum(C.node_weights) == 8
        assert C.num_nodes == len(U) + len(Pi)

    def test_triangle_by_hand(self):
        C, U, Pi = self.stages_for(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
        # one R edge {1,2}, one path 1-0-2 through the subdivision node
        assert U == [1, 2]
        assert C.num_nodes == 3
        assert sum(C.node_weights) == 3

    def test_interior_free_path_gets_zero_weight_node(self):
        weights = []
        C, U, Pi = self.stages_for(theta(), weights)
        assert C.branch is U and C.paths is Pi
        assert C.interior_weights.tolist() == [weights[v] for v in Pi.interiors.tolist()]
        Pi = path_lists(Pi)
        assert any(len(p) == 2 for p in Pi)
        for i, u in enumerate(U):
            assert C.node_weights[i] == weights[u]
        for j, p in enumerate(Pi):
            s = len(U) + j
            assert C.node_weights[s] == sum(weights[v] for v in p[1:-1])
            assert type(C.node_weights[s]) is int
            if len(p) == 2:
                assert C.node_weights[s] == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_simple_graph_keeps_every_edge(self, seed):
        # tree paths are unique and the edges of R distinct, so no two
        # compressed edges join the same pair of nodes
        G = theta() if seed == 0 else generate(GenSpec(n=40 * seed, r=seed, seed=seed))
        C, U, Pi = self.stages_for(G)
        Gc = C.simple_graph()
        assert C.edges.dtype == np.int64 and C.edges.shape == (len(C.edges), 2)
        assert len(set(Gc.edges())) == Gc.m == len(C.edges)
        assert set(Gc.edges()) == {(min(e), max(e)) for e in C.edges.tolist()}
        # per path its two edges, then R's, in the order the lists gave
        edges = []
        for sub, p in enumerate(path_lists(Pi), start=len(U)):
            edges += [[U.index(p[0]), sub], [sub, U.index(p[-1])]]
        R = extra_edges(G, compute_spanning_tree(G))
        edges += [[U.index(u), U.index(v)] for u, v in R.tolist()]
        assert C.edges.tolist() == edges


def paths_record(paths):
    """The ``Paths`` record of paths given as lists, endpoints included."""
    interiors = [v for p in paths for v in p[1:-1]]
    offsets = np.cumsum([0] + [len(p) - 2 for p in paths])
    return Paths(np.array([[p[0], p[-1]] for p in paths], dtype=np.int64).reshape(-1, 2),
                 np.array(interiors, dtype=np.int64), offsets)


def hand_built(branch, paths, weights):
    """A CompressedGraph over the given paths; ``weights`` maps an interior
    vertex to its collapsed weight, 0 if missing."""
    node_of = {u: i for i, u in enumerate(branch)}
    edges = []
    for sub, p in enumerate(paths, start=len(branch)):
        edges += [(node_of[p[0]], sub), (sub, node_of[p[-1]])]
    node_weights = [0] * len(branch) + [sum(weights.get(v, 0) for v in p[1:-1]) for p in paths]
    interior_weights = [weights.get(v, 0) for p in paths for v in p[1:-1]]
    return CompressedGraph(node_weights, np.array(edges, dtype=np.int64), branch,
                           paths_record(paths), np.array(interior_weights, dtype=np.int64))


class TestLiftSeparator:
    def test_branch_nodes_lift_verbatim(self):
        C, U, Pi = TestCompressedGraph.stages_for(theta())
        lifted, exact = lift_separator(set(range(len(C.branch))), C)
        assert lifted == set(U)
        assert exact == set(U)

    def test_empty_lifts_to_empty(self):
        C, _, _ = TestCompressedGraph.stages_for(theta())
        lifted, exact = lift_separator(set(), C)
        assert lifted == set() and exact == set()

    def test_weighted_median_cut(self):
        # interior weights (1, 1, 5, 1): cutting the weight-5 vertex leaves
        # sides of weight 2 and 1, better than any other cut
        C = hand_built([5, 6], [[5, 10, 11, 12, 13, 6]], {10: 1, 11: 1, 12: 5, 13: 1})
        assert C.node_weights == [0, 0, 8]
        lifted, exact = lift_separator({2}, C)
        assert lifted == {12}
        # the exact lift cuts both interior ends; the middle (11, 12)
        # weighs 6 > 2/3 * 8 and is cut at 12
        assert exact == {10, 12, 13}

    def test_interior_free_node_lifts_to_lower_endpoint(self):
        C = hand_built([4, 9], [[9, 4]], {})
        lifted, exact = lift_separator({2}, C)
        assert lifted == {4}
        assert exact == {4}

    def test_interior_free_node_avoids_covered_endpoint(self):
        C = hand_built([4, 9], [[9, 4]], {})
        lifted, exact = lift_separator({0, 2}, C)
        assert lifted == {4, 9}
        # an endpoint in S already separates the path's ends
        assert exact == {4}
        assert lift_separator({1, 2}, C)[1] == {9}

    def test_shared_branch_vertex_is_cut(self):
        # both paths end at 1, so cutting 1 replaces their two interior
        # ends there; each keeps its end at 1 and loses the other
        C = hand_built([0, 1, 2], [[0, 10, 11, 1], [1, 12, 13, 2]],
                       {10: 1, 11: 1, 12: 1, 13: 1})
        lifted, exact = lift_separator({3, 4}, C)
        assert lifted == {10, 12}
        assert exact == {1, 10, 13}

    def test_interior_end_kept_when_its_endpoint_is_in_S(self):
        C = hand_built([0, 1], [[0, 10, 11, 12, 1]], {10: 1, 11: 1, 12: 1})
        lifted, exact = lift_separator({0, 2}, C)
        assert lifted == {0, 11}
        assert exact == {0, 12}

    def test_light_middle_is_left_whole(self):
        # the middle (13, 12) weighs 4, exactly 2/3 of W = 6: not more
        C = hand_built([0, 1], [[0, 10, 13, 12, 11, 1]], {10: 1, 13: 2, 12: 2, 11: 1})
        assert lift_separator({2}, C, Fraction(2, 3))[1] == {10, 11}

    def test_heavy_middle_is_cut_at_its_median_ties_to_lowest_id(self):
        # at 3/5 the same middle is heavy; cutting 13 or 12 leaves 2 a
        # side, and 12, the lower ID, wins though 13 comes first
        C = hand_built([0, 1], [[0, 10, 13, 12, 11, 1]], {10: 1, 13: 2, 12: 2, 11: 1})
        assert lift_separator({2}, C, Fraction(3, 5))[1] == {10, 11, 12}

    def test_cut_from_prefix_sums_matches_median_cut_with_ties(self):
        # small weights with zeros make runs of equally cheap cuts; the
        # loop below, the reference, breaks them toward the lowest vertex ID
        rng = random.Random(11)
        tied = 0
        for _ in range(400):
            k = rng.randint(1, 30)
            interior = rng.sample(range(1000), k)
            weights = [rng.choice((0, 0, 1, 2)) for _ in range(k)]
            prefix = list(accumulate(weights))
            i, best_v, best_cost = -1, None, None
            left = 0
            costs = []
            for j, (v, w) in enumerate(zip(interior, weights)):
                cost = max(left, prefix[-1] - left - w)
                if best_cost is None or cost < best_cost or (cost == best_cost and v < best_v):
                    i, best_v, best_cost = j, v, cost
                costs.append(cost)
                left += w
            tied += costs.count(best_cost) > 1
            C = hand_built([1000, 1001], [[1000, *interior, 1001]], dict(zip(interior, weights)))
            assert _median_cut(np.array(interior), C.interior_weights) == interior[i]
            assert C.node_weights[2] == prefix[-1]
            lifted, exact = lift_separator({2}, C)
            assert lifted == {interior[i]}
            assert all(type(v) is int for v in lifted | exact)
            assert {interior[0], interior[-1]} <= exact
        assert tied > 100


class TestExactSwitch:
    """The repair loop's one switch to the exact lift."""

    # a 12-cycle with the chord 0-6
    G = build_graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])

    def test_cyclic_heavy_component_switches_to_exact(self):
        sep = fixup(self.G, set(), Fraction(2, 3), {0, 6})
        assert sep.vertices == {0, 6} and sep.repairs == 1
        assert sep.max_component_weight == 5

    def test_switch_happens_once(self):
        # G - {3} still has a cycle and weighs 11 > 8: the next round adds
        # the centroid of the component's BFS tree instead
        sep = fixup(self.G, set(), Fraction(2, 3), {3})
        assert sep.repairs == 2 and 3 in sep.vertices
        assert verify_separator(self.G, sep.vertices).passed

    def test_tree_component_gets_its_centroid(self):
        sep = fixup(path(9), set(), Fraction(2, 3), {0})
        assert sep.vertices == {4} and sep.repairs == 1

    def test_pool_member_441_within_its_bound(self, tmp_path, capsys):
        # the median lift leaves a cyclic component over 2/3 of W, so the
        # one repair is the switch to the exact lift
        inst = gen.small_instance(441)
        assert inst.beta == Fraction(2, 3)
        sep = separate(build_graph(inst.n, inst.edges.tolist(), inst.weights.tolist()),
                       beta=inst.beta)
        assert sep.repairs == 1
        assert check_separator(inst, sep.vertices) is None
        f = tmp_path / "g.txt"
        f.write_text(inst.text(), encoding="utf-8")
        assert main(["separate", str(f), "--beta", "2/3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == f"size {sep.size}"


def weighted(G, weights):
    """G with other vertex weights."""
    return Graph(n=G.n, indptr=G.indptr, indices=G.indices, weights=list(weights))


class TestTreeCentroid:
    def test_path_of_five(self):
        assert tree_centroid(path(5)) == 2

    def test_star_center(self):
        assert tree_centroid(star(7)) == 0

    def test_heavy_end_of_path(self):
        assert tree_centroid(path(3, [5, 1, 1])) == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyTree):
            tree_centroid(build_graph(0, []))

    def test_halving_property(self):
        rng = random.Random(51)
        for _ in range(50):
            n = rng.randint(1, 20)
            G = weighted(random_parent_tree(rng, n), [rng.randint(1, 9) for _ in range(n)])
            report = verify_separator(G, {tree_centroid(G)}, Fraction(1, 2))
            assert report.max_component_weight * 2 <= G.total_weight

    def test_matches_brute_force(self):
        # the vertex whose removal leaves the lightest heaviest part; ties
        # go to the lower ID
        rng = random.Random(52)
        for _ in range(300):
            n = rng.randint(1, 25)
            G = random_parent_tree(rng, n)
            G = weighted(G, [rng.choice((0, 1, 1, 2, 5)) for _ in range(n)])
            want = min(range(n), key=lambda v: (verify_separator(G, {v}).max_component_weight, v))
            assert tree_centroid(G) == want

    @pytest.mark.parametrize("n", [1000, 3000, 5000])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_on_wide_trees(self, n, seed):
        # most of these trees' vertices lie in BFS layers of 32 or more,
        # which _bfs_layers steps as arrays
        rng = np.random.default_rng(seed)
        G = weighted(random_tree(n, seed), rng.integers(0, 10, n).tolist())
        adjacency = {v: row(G, v) for v in range(n)}
        assert tree_centroid(G) == reference_tree_centroid(range(n), adjacency, G.weights)

    @staticmethod
    def spanning_tree_of(G):
        """The tree of compute_spanning_tree(G), with G's weights."""
        return build_graph(G.n, compute_spanning_tree(G).tree_edges(), G.weights)

    @pytest.mark.parametrize("G", [cycle(6), theta(), cycle(9, [1, 3, 1, 2, 5, 1, 1, 4, 2])])
    def test_graph_with_cycles_gives_its_bfs_tree_centroid(self, G):
        # the BFS tree of C6 hangs 3 under 2, the lower of its two
        # neighbours one layer up, and gives 0
        H = self.spanning_tree_of(G)
        got = tree_centroid(G)
        assert got == reference_tree_centroid(range(H.n), {v: row(H, v) for v in range(H.n)},
                                              H.weights)
        if G.n == 6:
            assert got == 0

    def test_theta_of_three_paths(self):
        # two vertices joined by three paths of three inner vertices each
        edges = []
        for k in range(3):
            inner = [2 + 3 * k + i for i in range(3)]
            edges += zip([0] + inner, inner + [1])
        rng = random.Random(7)
        for _ in range(20):
            G = build_graph(11, edges, [rng.randint(0, 6) for _ in range(11)])
            H = self.spanning_tree_of(G)
            assert tree_centroid(G) == reference_tree_centroid(
                range(11), {v: row(H, v) for v in range(11)}, H.weights)


def fixup(G, S, *args, **kwargs):
    """heavy_vertex_fixup on G's BFS tree from vertex 0 and its extra edges."""
    T = compute_spanning_tree(G)
    return heavy_vertex_fixup(G, T, extra_edges(G, T), S, *args, **kwargs)


class TestHeavyVertexFixup:
    def test_balanced_input_unchanged(self):
        G = cycle(6)
        sep = fixup(G, {0, 3})
        assert sep.vertices == {0, 3}
        assert sep.repairs == 0

    def test_star_with_chord_needs_one_centroid_repair(self):
        # removing the two chord leaves strands a 98-vertex star at the center
        edges = [(0, v) for v in range(1, 100)] + [(1, 2)]
        G = build_graph(100, edges)
        sep = fixup(G, {1, 2})
        assert sep.repairs == 1
        assert 0 in sep.vertices
        assert verify_separator(G, sep.vertices).passed

    def test_stats_report_balance(self):
        G = path(9)
        sep = fixup(G, set())
        assert verify_separator(G, sep.vertices).passed
        assert sep.max_fraction <= 2 / 3

    def test_max_component_weight_is_verified_weight(self):
        rng = random.Random(45)
        for _ in range(20):
            n = rng.randint(2, 40)
            G = random_parent_tree(rng, n)
            G = build_graph(n, G.edges(), [rng.randint(1, 9) for _ in range(n)])
            sep = fixup(G, rng.sample(range(n), rng.randint(0, 2)))
            report = verify_separator(G, sep.vertices)
            assert report.passed
            assert sep.max_component_weight == report.max_component_weight

    def test_whole_vertex_set_has_no_component(self):
        sep = fixup(cycle(4), {0, 1, 2, 3})
        assert sep.max_component_weight == 0 and sep.repairs == 0

    @pytest.mark.parametrize("n", [9, 3000])
    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_out_of_range_vertex_raises(self, n, bad):
        G = path(n)
        v = n if bad == "n" else bad
        with pytest.raises(BadVertexId):
            fixup(G, {n // 2, v})

    @pytest.mark.parametrize("beta", [0, Fraction(1, 2), 1])
    def test_bad_beta_raises(self, beta):
        # beta = 0 used to run the loop into its cap, a sign of a bug, and
        # beta = 1/2 passed though separate rejects it
        G = generate(GenSpec(n=300, r=4, seed=1))
        with pytest.raises(BadBeta):
            fixup(G, set(), beta)


class TestTreePlusExtraCheck:
    """The search of G - S on T plus R against verify_separator on G."""

    @staticmethod
    def separator_sets(G, T, rng):
        n = G.n
        yield set()
        yield {T.root, *rng.sample(range(n), min(n, rng.randint(0, 5)))}
        pairs = set()
        for u, v in rng.sample(list(G.edges()), min(G.m, rng.randint(1, 4))):
            pairs |= {u, v}
        yield pairs
        yield set(range(n)) - {rng.randrange(n)}
        # ties: S leaves singletons of equal weight, plus what they cut off
        weight = rng.choice(G.weights)
        keep = set()
        for v in rng.sample(range(n), n):
            if G.weights[v] == weight and not keep & set(row(G, v)):
                keep.add(v)
        yield set(range(n)) - keep
        yield set(rng.sample(range(n), n // 3))

    def test_matches_heaviest_component(self):
        rng = random.Random(7)
        modes = [("unit",), ("uniform", 1, 3), ("single_heavy", Fraction(7, 10))]
        checked = 0
        for i in range(200):
            n = rng.choice((rng.randint(4, 60), rng.randint(60, 3000)))
            r = rng.randint(0, min(64, 2 * n - 7))
            G = generate(GenSpec(n=n, r=r, seed=i, weight_mode=modes[i % 3]))
            T = compute_spanning_tree(G, root=rng.randrange(n))
            check = atsep.pipeline._TreePlusExtra(G, T, extra_edges(G, T))
            for S in self.separator_sets(G, T, rng):
                removed = np.zeros(n, dtype=bool)
                removed[list(S)] = True
                found = check.heaviest(removed)
                report = verify_separator(G, S)
                members, weight = report.heaviest(), report.max_component_weight
                found_members = np.flatnonzero(found.inside()).tolist()
                assert (found.weight, found_members) == (weight, members), (i, sorted(S))
                if members:
                    inside = set(members)
                    inner = sum(v in inside for u in members for v in row(G, u)) // 2
                    assert found.is_tree == (inner == len(members) - 1)
                checked += 1
        assert checked == 1200

    @staticmethod
    def record_collapses(monkeypatch):
        """The marked set of every collapse from now on: an ``_entries``
        call that sums weights, not one that builds the index."""
        marks = []
        real = atsep.pipeline._entries

        def recording(parent, root, marked, weights, index=False):
            if weights is not None:
                marks.append(marked.copy())
            return real(parent, root, marked, weights, index)

        monkeypatch.setattr(atsep.pipeline, "_entries", recording)
        return marks

    def test_entry_shortcut_matches_the_parent_jump(self, monkeypatch):
        # with cw the search runs over its entries and collapses nothing
        # while S lies inside T1; a set that leaves the marked set collapses
        # once, onto T1 plus every vertex marked so far
        rng = random.Random(11)
        calls = self.record_collapses(monkeypatch)
        collapses = inside_searches = 0
        for i in range(40):
            n = rng.randint(30, 3000)
            G = generate(GenSpec(n=n, r=rng.randint(1, 40), seed=i))
            T = compute_spanning_tree(G, root=rng.randrange(n))
            R = extra_edges(G, T)
            T1 = steiner_subtree(T, edge_ends(R))
            cw = collapse_weights(G, T, T1)
            plain = atsep.pipeline._TreePlusExtra(G, T, R)
            fast = atsep.pipeline._TreePlusExtra(G, T, R, cw)
            marked = T1.member.copy()
            inside = T1.vertices()
            for S in (rng.sample(inside, min(len(inside), k)) for k in (1, 3, 8)):
                for extra in ([], [rng.randrange(n)]):
                    removed = np.zeros(n, dtype=bool)
                    removed[S + extra] = True
                    want = plain.heaviest(removed)
                    before = len(calls)
                    got = fast.heaviest(removed)
                    leaves = not marked[S + extra].all()
                    marked[S + extra] = True
                    assert len(calls) - before == leaves
                    if leaves:
                        assert (calls[-1] == marked).all()
                    collapses += leaves
                    inside_searches += not extra
                    assert (got.weight, got.label, got.is_tree) == (
                        want.weight, want.label, want.is_tree)
                    assert (got.head_of() == want.head_of()).all()
                    assert (got.inside() == want.inside()).all()
        assert inside_searches == 120 and collapses >= 20

    @staticmethod
    def assert_heaviest(G, found, S):
        report = verify_separator(G, S)
        members, weight = report.heaviest(), report.max_component_weight
        assert (found.weight, found.inside().nonzero()[0].tolist()) == (weight, members)

    def test_one_search_across_sets(self, monkeypatch):
        # inside T1, then out of it (a collapse), then a smaller set inside
        # T1 and the empty set, which the grown marked set still holds
        calls = self.record_collapses(monkeypatch)
        G = generate(GenSpec(n=2000, r=12, seed=3, weight_mode=("uniform", 1, 4)))
        T = compute_spanning_tree(G)
        R = extra_edges(G, T)
        T1 = steiner_subtree(T, edge_ends(R))
        cw = collapse_weights(G, T, T1)
        calls.clear()
        check = atsep.pipeline._TreePlusExtra(G, T, R, cw)
        inside = T1.vertices()
        outside = int((~T1.member).nonzero()[0][0])
        sets = [set(inside[::3]), set(inside[::3]) | {outside}, set(inside[::7]), set()]
        for S, collapsed in zip(sets, [0, 1, 1, 1]):
            removed = np.zeros(G.n, dtype=bool)
            removed[list(S)] = True
            self.assert_heaviest(G, check.heaviest(removed), S)
            assert len(calls) == collapsed
        assert check.marked.sum() == len(inside) + 1

    def test_tree_collapses_on_its_first_search(self, monkeypatch):
        calls = self.record_collapses(monkeypatch)
        G = generate(GenSpec(n=500, r=-1, seed=2, weight_mode=("uniform", 1, 5)))
        T = compute_spanning_tree(G)
        check = atsep.pipeline._TreePlusExtra(G, T, np.empty((0, 2), dtype=np.int64))
        assert not check.marked.any() and calls == []
        for S in ({tree_centroid(G)}, set(), {0, 7, 99}):
            removed = np.zeros(G.n, dtype=bool)
            removed[list(S)] = True
            self.assert_heaviest(G, check.heaviest(removed), S)
        # the first search marks the centroid alone, and {0, 7, 99} leaves it
        c = tree_centroid(G)
        assert [m.nonzero()[0].tolist() for m in calls] == [[c], sorted({c, 0, 7, 99})]

    def test_edge_count_is_checked(self):
        G = theta()
        T = compute_spanning_tree(G)
        R = extra_edges(G, T)[:-1]
        with pytest.raises(ValueError, match="m - n \\+ 1"):
            heavy_vertex_fixup(G, T, R, set())


class TestLazyIndex:
    """The n-length index, each vertex's entry slot, is built only when a
    repair reads vertices back: ``inside`` for a centroid, or a tie."""

    @staticmethod
    def record(monkeypatch):
        """Per ``_entries`` call, whether it built the index; per search,
        how many components tie for the heaviest."""
        builds, ties = [], []
        real_entries = atsep.pipeline._entries
        real_heaviest = atsep.pipeline._TreePlusExtra.heaviest

        def entries(parent, root, marked, weights, index=False):
            builds.append(index)
            return real_entries(parent, root, marked, weights, index)

        def heaviest(self, removed):
            found = real_heaviest(self, removed)
            ties.append(found.best.size)
            return found

        monkeypatch.setattr(atsep.pipeline, "_entries", entries)
        monkeypatch.setattr(atsep.pipeline._TreePlusExtra, "heaviest", heaviest)
        return builds, ties

    def test_balanced_call_builds_no_index(self, monkeypatch):
        builds, ties = self.record(monkeypatch)
        G = generate(GenSpec(n=200_000, r=16, seed=1))
        sep = separate(G)
        # the collapse alone calls _entries; the repair searches its entries
        assert sep.repairs == 0 and builds == [False] and ties == [1]

    def test_centroid_repair_builds_it_once(self, monkeypatch):
        builds, ties = self.record(monkeypatch)
        G = generate(GenSpec(n=200, r=8, seed=0, weight_mode=("single_heavy", Fraction(7, 10))))
        sep = separate(G)
        # the separator the stored index gave; the centroid lies outside
        # T1, so the second search collapses again, with no index
        assert sorted(sep.vertices) == [131, 139] and sep.repairs == 1
        assert builds == [False, True, False] and ties == [1, 1]
        assert verify_separator(G, sep.vertices).passed

    def test_tie_after_a_repair_is_left_unbroken(self, monkeypatch):
        # two components heavier than beta * W > W / 2 cannot both exist,
        # so a tie for the heaviest never precedes a repair: it ends the
        # loop, and only the repair before it built the index
        builds, ties = self.record(monkeypatch)
        G = generate(GenSpec(n=20, r=2, seed=13, weight_mode=("single_heavy", Fraction(7, 10))))
        sep = separate(G)
        assert sorted(sep.vertices) == [2, 9] and sep.repairs == 1
        assert sep.max_component_weight == 6 and ties == [1, 2]
        assert builds == [False, True, False]
        # broken on request, the tie goes to the component of the lowest vertex
        T = compute_spanning_tree(G)
        check = atsep.pipeline._TreePlusExtra(G, T, extra_edges(G, T))
        removed = np.zeros(G.n, dtype=bool)
        removed[[2, 9]] = True
        found = check.heaviest(removed)
        # the search collapses onto R's ends and S, with no index
        assert found.best.size == 2 and builds.count(True) == 1
        TestTreePlusExtraCheck.assert_heaviest(G, found, {2, 9})
        assert builds.count(True) == 2


class TestRoot:
    @pytest.mark.parametrize("root", [-1, 300])
    def test_root_outside_the_graph_raises(self, root):
        G = generate(GenSpec(n=300, r=8, seed=1))
        for call in (separate, compute_spanning_tree, lt_separator, bfs_levels):
            with pytest.raises(BadVertexId, match=f"root {root} out of range"):
                call(G, root=root)

    def test_valid_root(self):
        G = generate(GenSpec(n=300, r=8, seed=1))
        sep = separate(G, root=299)
        assert verify_separator(G, sep.vertices).passed
        T = compute_spanning_tree(G, root=299)
        assert T.root == 299
        check_bfs_tree(G, T)


class TestSeparate:
    def test_peak_memory_per_vertex(self):
        # the repair searches the entries of collapse_weights, decompose_paths
        # works on T1's members, and one array of n int64s is made, the
        # spanning tree's parent array: the leaves are hung a block at a
        # time, and the collapsed weights are one per T1 member and then
        # one per path interior vertex, so at 2 * 10^5 vertices the call
        # allocates at most about 15.5 bytes per vertex above what was
        # live, at the spanning tree's walk (18.5 while the leaf hanging
        # held leaf-length arrays, 23.5 while the collapse kept an n-length
        # wprime and entry index, 24.4 while the repair built an n-length
        # mask to test S inside T1, 34 while T1 kept a degree per vertex
        # and the weight collapse jumped through a fresh pointer array each
        # round, 69 while the repair and the paths walked every vertex)
        G = generate(GenSpec(n=200_000, r=16, seed=1))
        separate(G)
        gc.collect()
        tracemalloc.start()
        try:
            separate(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * G.n

    def test_stage_memory_per_vertex(self):
        # on the graph above, above what was live before each stage:
        # compute_spanning_tree returns its 8-byte parents and peaks at
        # about 15.5 bytes a vertex, in its walk, with the leaves hung a
        # block of 2^16 vertices at a time (18.5 while the leaf hanging
        # held leaf-length arrays); extra_edges sums tree degrees per
        # group of 8 vertices, about 4.6 (9.0 with a count per vertex); T1
        # leaves its member mask live, a byte a vertex, and its forks (9
        # bytes a vertex while it kept a degree per vertex);
        # collapse_weights holds the jump's n + k int32 pointers, 4 bytes
        # a vertex, and chunk-sized temporaries, and makes the entry mask
        # and its members' position map only once they are freed, about
        # 6.0 in all (9.4 with int64 pointers, 13.7 while an int32
        # position per vertex and the entry mask lived beside them, about
        # 17 while each jump round made a new pointer array)
        G = generate(GenSpec(n=200_000, r=16, seed=1))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            T = compute_spanning_tree(G)
            tree_peak = tracemalloc.get_traced_memory()[1] - before
            R = extra_edges(G, T)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            extra_edges(G, T)
            extra_peak = tracemalloc.get_traced_memory()[1] - before
            terminals = edge_ends(R)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            T1 = steiner_subtree(T, terminals)
            live = tracemalloc.get_traced_memory()[0] - before
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            collapse_weights(G, T, T1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert tree_peak <= 17 * G.n
        assert extra_peak <= 5 * G.n
        assert live <= G.n + 16 * np.count_nonzero(T1.member) + 4096
        assert peak <= 7 * G.n

    def test_stage_ns_of_a_tree(self):
        sep = separate(path(9))
        assert list(sep.stage_ns) == ["spanning_tree", "lift_and_repair"]

    def test_stage_ns_in_pipeline_order(self):
        G = generate(GenSpec(n=300, r=8, seed=1))
        sep = separate(G)
        assert list(sep.stage_ns) == [
            "spanning_tree", "extra_edges", "steiner_subtree", "decompose_paths",
            "collapse_weights", "build_compressed", "lt_separator", "lift_and_repair",
        ]
        assert all(type(ns) is int and ns >= 0 for ns in sep.stage_ns.values())
        # timings differ between calls, but they take no part in equality
        assert separate(G) == sep
        assert "stage_ns" not in repr(sep)

    def test_tree_returns_centroid(self):
        sep = separate(path(9))
        assert sep.size == 1
        assert sep.vertices == {4}
        G = generate(GenSpec(n=3000, r=-1, seed=4, weight_mode=("uniform", 1, 5)))
        assert G.excess == -1
        sep = separate(G)
        assert sep.size == 1 and sep.repairs == 0
        c, = sep.vertices
        assert c == tree_centroid(G)
        assert sep.max_component_weight == verify_separator(G, sep.vertices).max_component_weight

    def test_c6(self):
        G = cycle(6)
        sep = separate(G)
        assert verify_separator(G, sep.vertices).passed
        assert sep.size <= 6

    def test_theta_within_bound(self):
        G = theta()
        sep = separate(G)
        assert verify_separator(G, sep.vertices).passed
        assert sep.size <= 7  # 4 * sqrt(r + 1) + 2 with r = 1

    def test_zero_weight_raises(self):
        G = build_graph(3, [(0, 1), (1, 2)], [0, 0, 0])
        with pytest.raises(ZeroTotalWeight):
            separate(G)

    def test_disconnected_raises(self):
        with pytest.raises(Disconnected):
            separate(build_graph(4, [(0, 1), (2, 3)]))

    def test_single_heavy_repair_instance(self):
        edges = [(0, v) for v in range(1, 100)] + [(1, 2)]
        G = assign_weights(build_graph(100, edges), ("single_heavy", Fraction(7, 10)), 0)
        sep = separate(G)
        assert sep.repairs >= 1
        assert sep.size <= 4
        assert verify_separator(G, sep.vertices).passed

    def test_one_component_pass_without_repairs(self, monkeypatch):
        # lift and repair search G - S on T plus R: one check, and no
        # component search of G itself
        G = generate(GenSpec(n=3000, r=4, seed=2))
        calls = []
        real = atsep.graph.connected_components
        checks = []
        real_check = atsep.pipeline._TreePlusExtra.heaviest

        def counting(H, *args, **kwargs):
            calls.append(H is G)
            return real(H, *args, **kwargs)

        def counting_check(self, removed):
            checks.append(len(removed) == G.n)
            return real_check(self, removed)

        # verify_separator searches through this binding
        monkeypatch.setattr(atsep.graph, "connected_components", counting)
        monkeypatch.setattr(atsep.pipeline._TreePlusExtra, "heaviest", counting_check)
        sep = separate(G)
        assert sep.repairs == 0
        assert calls.count(True) == 0
        assert checks == [True]
        assert verify_separator(G, sep.vertices).passed

    def test_edge_count_is_stored(self):
        # m reads the frozen CSR, the only neighbour structure: separate
        # caches nothing on the graph
        G = generate(GenSpec(n=3000, r=4, seed=2))
        assert G.m == len(G.indices) // 2 == 3004
        built = dict(vars(G))
        assert separate(G).repairs == 0
        assert vars(G).keys() == built.keys()
        assert all(vars(G)[k] is v for k, v in built.items())
        T = compute_spanning_tree(G)
        assert not hasattr(G, "adjacency") and not hasattr(T, "adjacency")

    def test_not_planar_reports_input_counts(self):
        edges = list(complete(5).edges()) + [(4 + i, 5 + i) for i in range(20)]
        G = build_graph(25, edges)
        with pytest.raises(NotPlanar, match="25 vertices and 30 edges"):
            separate(G)
        # a subdivided K3,3 with hanging trees: the gate sees only its kernel
        k33 = [(u, v) for u in range(3) for v in range(3, 6)]
        G = subdivided(k33, 20, random.Random(3), hang=15)
        assert (G.n, G.m) == (226, 229)
        with pytest.raises(NotPlanar, match="226 vertices and 229 edges"):
            separate(G)

    @pytest.mark.parametrize(
        "beta", [0, Fraction(1, 2), 1, Fraction(3, 2)]
    )
    def test_beta_outside_open_interval_rejected(self, beta):
        for G in (theta(), path(9)):
            with pytest.raises(BadBeta, match="between 1/2 and 1"):
                separate(G, beta=beta)
        assert issubclass(BadBeta, AtsepError)

    def test_verify_accepts_any_beta(self):
        G = cycle(6)
        assert not verify_separator(G, {0}, 0).passed
        assert verify_separator(G, set(), Fraction(3, 2)).passed

    def test_validity_matches_oracle_feasibility(self):
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randint(2, 10)
            G = random_parent_tree(rng, n)
            result = min_balanced_separator(G, max_size=n)
            assert result.feasible
            sep = separate(G)
            assert verify_separator(G, sep.vertices).passed


class TestDumpStages:
    def test_theta_has_nine_stages(self):
        trace = dump_stages(theta())
        assert trace.names() == [
            "input",
            "spanning_tree",
            "extra_edges",
            "steiner_subtree",
            "branch_set",
            "compressed",
            "compressed_separator",
            "repairs",
            "separator",
        ]

    def test_tree_has_two_stages(self):
        trace = dump_stages(path(5))
        assert trace.names() == ["input", "separator"]

    def test_stage_weights_conserved(self):
        W = theta().total_weight
        for stage in dump_stages(theta()).stages:
            assert stage.graph.total_weight == W

    def test_format_trace_layout(self):
        text = format_trace(dump_stages(path(3)))
        assert text.startswith("stage input\n")
        assert "stage separator\n" in text
        assert "s 2\n" in text  # centroid of a 3-path, 1-based


def test_small_call_leaves_numpy_ma_unimported():
    # plain np.unique imports numpy.ma on its first call (40-130 ms), which
    # a process that separates one small graph would pay in full
    code = (
        "import sys\n"
        "from atsep.gen import GenSpec, generate\n"
        "from atsep.pipeline import separate\n"
        "G = generate(GenSpec(n=300, r=20, seed=1))\n"
        "print('numpy.ma' in sys.modules)\n"
        "separate(G)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "False"]


def test_large_calls_leave_scipy_unimported():
    # connected_components labels large graphs in numpy, so neither LT on
    # a compressed graph above _ARRAY_MIN_N nodes (3,723 here) nor a
    # verification at input size imports scipy, which took 0.3-0.45 s
    code = (
        "import sys\n"
        "import atsep\n"
        "from atsep.gen import GenSpec, generate\n"
        "G = generate(GenSpec(20_000, 600, 1))\n"
        "sep = atsep.separate(G)\n"
        "assert atsep.verify_separator(G, sep.vertices).passed\n"
        "print(G.n, 'scipy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["20000", "False"]

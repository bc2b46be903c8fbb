"""Pipeline stages: compression construction, lifting, repairs, end to end."""

import random
import subprocess
import sys
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest

import atsep.graph
import atsep.pipeline
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
from atsep.gen import GenSpec, assign_weights, generate
from atsep.graph import Graph, SpanningTree, build_graph, verify_separator
from atsep.oracle import (
    min_balanced_separator,
    nearest_in_set_oracle,
    steiner_subtree_oracle,
)
from atsep.pipeline import (
    CompressedGraph,
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

from conftest import complete, cycle, path, random_parent_tree, star, subdivided, theta


def bfs_distances(G, root):
    dist = [-1] * G.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in G.adjacency[u]:
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
            assert parent[v] == min(u for u in G.adjacency[v] if dist[u] == dist[v] - 1)
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
        G = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            compute_spanning_tree(G)

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
        # double stars with chords: from any root some layer holds well over
        # a hundred vertices, so the vectorised level step runs
        for _ in range(3):
            n = rng.randint(300, 600)
            edges = {(rng.randrange(min(v, 2)), v) for v in range(1, n)}
            while len(edges) < n + 20:
                u, v = sorted(rng.sample(range(2, n), 2))
                edges.add((u, v))
            G = build_graph(n, sorted(edges))
            dist = check_bfs_tree(G, compute_spanning_tree(G, root=rng.randrange(n)))
            assert max(Counter(dist).values()) >= 128

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
        assert extra_edges(G, T).edges == [(1, 2)]

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
        assert U.members == {0, 1, 2, 3}
        assert len(U) <= 2 * 3

    def test_path_subtree(self):
        T = SpanningTree(root=0, parent=[0, 0, 1, 2, 3])
        T1 = steiner_subtree(T, {1, 3})
        assert branch_vertices(T1, {1, 3}).members == {1, 3}

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
        assert sorted(sorted((p[0], p[-1])) for p in Pi.paths) == [[0, 1], [0, 2], [0, 3]]

    def test_path_with_interior(self):
        T = SpanningTree(root=0, parent=[0, 0, 1, 2, 3])
        T1 = steiner_subtree(T, {1, 3})
        Pi = decompose_paths(T1, branch_vertices(T1, {1, 3}))
        assert Pi.paths == [[1, 2, 3]]

    def test_edge_disjoint_cover(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(3, 25)
            G = random_parent_tree(rng, n)
            T = compute_spanning_tree(G)
            terms = rng.sample(range(n), rng.randint(2, n))
            T1 = steiner_subtree(T, terms)
            U = branch_vertices(T1, terms)
            Pi = decompose_paths(T1, U)
            covered = []
            for p in Pi.paths:
                for a, b in zip(p, p[1:]):
                    covered.append((min(a, b), max(a, b)))
                for inner in p[1:-1]:
                    assert inner not in U.members
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
        cw = collapse_weights(G, T, T1)
        assert cw.wprime[1] == 2 and cw.wprime[2] == 1 and cw.wprime[3] == 2
        assert sum(cw.wprime) == 5

    def test_identity_when_subtree_covers_graph(self):
        G = path(4)
        T = compute_spanning_tree(G)
        T1 = steiner_subtree(T, {0, 3})
        cw = collapse_weights(G, T, T1)
        assert cw.wprime.tolist() == G.weights
        assert cw.attach == list(range(4))

    def test_conservation_and_nearest_oracle(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(2, 15)
            G = random_parent_tree(rng, n)
            G = build_graph(n, G.edges(), [rng.randint(0, 9) for _ in range(n)])
            T = compute_spanning_tree(G)
            terms = rng.sample(range(n), rng.randint(1, n))
            T1 = steiner_subtree(T, terms)
            cw = collapse_weights(G, T, T1)
            assert sum(cw.wprime) == G.total_weight
            assert cw.attach == nearest_in_set_oracle(T, T1.vertices())

    @staticmethod
    def check_against_oracle(G, terms, root=0):
        T = compute_spanning_tree(G, root=root)
        T1 = steiner_subtree(T, terms)
        cw = collapse_weights(G, T, T1)
        assert cw.attach == nearest_in_set_oracle(T, T1.vertices())
        assert sum(cw.wprime) == G.total_weight
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
            for terms in (R.endpoints(), {n // 3, n // 3 + 700}, {n - 1}):
                T1 = steiner_subtree(T, terms)
                cw = collapse_weights(G, T, T1)
                near = self.nearest_by_walking_up(T, T1)
                assert cw.attach == near
                want = np.bincount(near, weights=weights, minlength=n).astype(np.int64)
                assert cw.wprime.tolist() == want.tolist()
                assert int(cw.wprime.sum()) == G.total_weight

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
    def stages_for(G):
        T = compute_spanning_tree(G)
        R = extra_edges(G, T)
        T1 = steiner_subtree(T, R.endpoints())
        U = branch_vertices(T1, R.endpoints())
        Pi = decompose_paths(T1, U)
        cw = collapse_weights(G, T, T1)
        return build_compressed_graph(U, Pi, R, cw), U, Pi

    def test_theta_weights_and_size(self):
        C, U, Pi = self.stages_for(theta())
        assert sum(C.node_weights) == 8
        assert C.num_nodes == len(U) + len(Pi)

    def test_triangle_by_hand(self):
        C, U, Pi = self.stages_for(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
        # one R edge {1,2}, one path 1-0-2 through the subdivision node
        assert U.members == {1, 2}
        assert C.num_nodes == 3
        assert sum(C.node_weights) == 3

    def test_interior_free_path_gets_zero_weight_node(self):
        C, _, Pi = self.stages_for(theta())
        assert any(len(p) == 2 for p in Pi.paths)
        for s, (interior, prefix) in C.back_map.items():
            want = prefix[-1] if prefix else 0
            assert C.node_weights[s] == want
            if not interior:
                assert C.node_weights[s] == 0

    def test_simple_graph_drops_parallel_edges(self):
        C, _, _ = self.stages_for(theta())
        Gc = C.simple_graph()
        assert len({tuple(sorted(e)) for e in Gc.edges()}) == Gc.m


class TestLiftSeparator:
    def test_branch_nodes_lift_verbatim(self):
        C, U, Pi = TestCompressedGraph.stages_for(theta())
        branch_ids = [i for i, o in enumerate(C.orig) if o is not None]
        lifted, frags = lift_separator(set(branch_ids), C)
        assert lifted == U.members
        assert frags == []

    def test_empty_lifts_to_empty(self):
        C, _, _ = TestCompressedGraph.stages_for(theta())
        assert lift_separator(set(), C) == (set(), [])

    def test_weighted_median_cut(self):
        # interior weights (1, 1, 5, 1): cutting the weight-5 vertex leaves
        # sides of weight 2 and 1, better than any other cut
        C = CompressedGraph(
            node_weights=[0, 0, 8],
            edges=[(0, 2), (2, 1)],
            orig=[5, 6, None],
            back_map={2: ([10, 11, 12, 13], [1, 2, 7, 8])},
            path_ends={2: (5, 6)},
        )
        lifted, frags = lift_separator({2}, C)
        assert lifted == {12}
        assert [f.vertices for f in frags] == [[10, 11], [13]]

    def test_interior_free_node_lifts_to_lower_endpoint(self):
        C = CompressedGraph(
            node_weights=[1, 1, 0],
            edges=[(0, 2), (2, 1)],
            orig=[4, 9, None],
            back_map={2: ([], [])},
            path_ends={2: (9, 4)},
        )
        lifted, _ = lift_separator({2}, C)
        assert lifted == {4}

    def test_interior_free_node_avoids_covered_endpoint(self):
        C = CompressedGraph(
            node_weights=[1, 1, 0],
            edges=[(0, 2), (2, 1)],
            orig=[4, 9, None],
            back_map={2: ([], [])},
            path_ends={2: (9, 4)},
        )
        lifted, _ = lift_separator({0, 2}, C)
        assert lifted == {4, 9}


class TestTreeCentroid:
    @staticmethod
    def adjacency_of(G):
        return {v: list(G.adjacency[v]) for v in range(G.n)}

    def test_path_of_five(self):
        G = path(5)
        assert tree_centroid(range(5), self.adjacency_of(G), G.weights) == 2

    def test_star_center(self):
        G = star(7)
        assert tree_centroid(range(7), self.adjacency_of(G), G.weights) == 0

    def test_heavy_end_of_path(self):
        G = path(3, [5, 1, 1])
        assert tree_centroid(range(3), self.adjacency_of(G), G.weights) == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyTree):
            tree_centroid([], {}, [])

    def test_halving_property(self):
        rng = random.Random(51)
        for _ in range(50):
            n = rng.randint(1, 20)
            G = random_parent_tree(rng, n)
            weights = [rng.randint(1, 9) for _ in range(n)]
            c = tree_centroid(range(n), self.adjacency_of(G), weights)
            G = build_graph(n, G.edges(), weights)
            report = verify_separator(G, {c}, Fraction(1, 2))
            assert report.max_component_weight * 2 <= G.total_weight

    def test_matches_brute_force(self):
        # the vertex whose removal leaves the lightest heaviest part; ties
        # go to the lower ID
        rng = random.Random(52)
        for _ in range(300):
            n = rng.randint(1, 25)
            G = random_parent_tree(rng, n)
            G = build_graph(n, G.edges(), [rng.choice((0, 1, 1, 2, 5)) for _ in range(n)])
            want = min(range(n), key=lambda v: (verify_separator(G, {v}).max_component_weight, v))
            assert tree_centroid(range(n), self.adjacency_of(G), G.weights) == want

    @staticmethod
    def bfs_tree(G):
        """BFS tree of G from vertex 0, each vertex hung off its first finder."""
        adj = {v: [] for v in range(G.n)}
        seen, queue = {0}, deque([0])
        while queue:
            u = queue.popleft()
            for v in G.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    adj[u].append(v)
                    adj[v].append(u)
                    queue.append(v)
        return adj

    @pytest.mark.parametrize("G", [cycle(6), theta(), cycle(9, [1, 3, 1, 2, 5, 1, 1, 4, 2])])
    def test_graph_with_cycles_gives_its_bfs_tree_centroid(self, G):
        # a depth-first walk of C6 drops the edge 1-2 and picks 4; the BFS
        # tree drops 3-4 and gives 0
        got = tree_centroid(range(G.n), self.adjacency_of(G), G.weights)
        assert got == tree_centroid(range(G.n), self.bfs_tree(G), G.weights)
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
            assert tree_centroid(range(11), self.adjacency_of(G), G.weights) == tree_centroid(
                range(11), self.bfs_tree(G), G.weights
            )


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


class TestTreePlusExtraCheck:
    """The search of G - S on T plus R against heaviest_component on G."""

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
            if G.weights[v] == weight and not keep & set(G.adjacency[v]):
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
                members, weight = atsep.graph.heaviest_component(G, S)
                found_members = np.flatnonzero(found.inside()).tolist()
                assert (found.weight, found_members) == (weight, members), (i, sorted(S))
                if members:
                    inside = set(members)
                    inner = sum(v in inside for u in members for v in G.adjacency[u]) // 2
                    assert found.is_tree == (inner == len(members) - 1)
                checked += 1
        assert checked == 1200

    def test_entry_shortcut_matches_the_parent_jump(self, monkeypatch):
        # with S inside T1 every head is an entry of collapse_weights, and
        # the jump may start there; other sets take the parent steps
        rng = random.Random(11)
        ups = []
        real = atsep.pipeline._nearest_marked

        def recording(up, mark):
            ups.append(up)
            return real(up, mark)

        monkeypatch.setattr(atsep.pipeline, "_nearest_marked", recording)
        shortcuts = 0
        for i in range(40):
            n = rng.randint(30, 3000)
            G = generate(GenSpec(n=n, r=rng.randint(1, 40), seed=i))
            T = compute_spanning_tree(G, root=rng.randrange(n))
            R = extra_edges(G, T)
            T1 = steiner_subtree(T, R.endpoints())
            cw = collapse_weights(G, T, T1)
            plain = atsep.pipeline._TreePlusExtra(G, T, R)
            fast = atsep.pipeline._TreePlusExtra(G, T, R, cw)
            inside = T1.vertices()
            for S in (rng.sample(inside, min(len(inside), k)) for k in (1, 3, 8)):
                for extra in ([], [rng.randrange(n)]):
                    removed = np.zeros(n, dtype=bool)
                    removed[S + extra] = True
                    want, got = plain.heaviest(removed), fast.heaviest(removed)
                    assert (got.weight, got.label, got.is_tree) == (
                        want.weight, want.label, want.is_tree)
                    assert (got.head_of == want.head_of).all()
                    shortcuts += ups[-1] is cw.skip
        assert shortcuts >= 120

    def test_edge_count_is_checked(self):
        G = theta()
        T = compute_spanning_tree(G)
        R = extra_edges(G, T)
        R.edges.pop()
        with pytest.raises(ValueError, match="m - n \\+ 1"):
            heavy_vertex_fixup(G, T, R, set())


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
        assert c == tree_centroid(range(G.n), TestTreeCentroid.adjacency_of(G), G.weights)
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

        # heaviest_component and verify_separator both search through this binding
        monkeypatch.setattr(atsep.graph, "connected_components", counting)
        monkeypatch.setattr(atsep.pipeline._TreePlusExtra, "heaviest", counting_check)
        sep = separate(G)
        assert sep.repairs == 0
        assert calls.count(True) == 0
        assert checks == [True]
        assert verify_separator(G, sep.vertices).passed

    def test_edge_count_is_stored(self):
        # m reads the frozen CSR; a call without repairs derives no lists
        G = generate(GenSpec(n=3000, r=4, seed=2))
        assert G.m == len(G.indices) // 2 == 3004
        assert separate(G).repairs == 0
        assert "adjacency" not in vars(G)

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

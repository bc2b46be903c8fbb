"""Property-based structural checks across random near-tree instances."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from atsep.gen import GenSpec, generate
from atsep.graph import build_graph, verify_separator
from atsep.oracle import nearest_in_set_oracle, steiner_subtree_oracle
from atsep.pipeline import (
    branch_vertices,
    collapse_weights,
    compute_spanning_tree,
    decompose_paths,
    extra_edges,
    separate,
    steiner_subtree,
    tree_centroid,
)

from conftest import collapsed, edge_ends, path_lists


@st.composite
def trees(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parents = [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)]
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n)
    )
    return build_graph(n, [(v, p) for v, p in enumerate(parents, start=1)], weights)


@st.composite
def near_trees(draw):
    n = draw(st.integers(min_value=4, max_value=60))
    r = draw(st.integers(min_value=0, max_value=min(8, 2 * n - 7)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return generate(GenSpec(n=n, r=r, seed=seed)), r


@settings(max_examples=200, deadline=None)
@given(near_trees())
def test_extra_edge_count(gr):
    G, r = gr
    R = extra_edges(G, compute_spanning_tree(G))
    assert len(R) == G.m - G.n + 1 == r + 1


@settings(max_examples=200, deadline=None)
@given(near_trees())
def test_branch_set_bound(gr):
    G, r = gr
    T = compute_spanning_tree(G)
    R = extra_edges(G, T)
    T1 = steiner_subtree(T, edge_ends(R))
    U = branch_vertices(T1, edge_ends(R))
    assert len(U) <= 2 * len(edge_ends(R)) <= 4 * (r + 1)


@settings(max_examples=200, deadline=None)
@given(near_trees())
def test_collapse_conserves_weight(gr):
    G, _ = gr
    T = compute_spanning_tree(G)
    R = extra_edges(G, T)
    T1 = steiner_subtree(T, edge_ends(R))
    cw = collapse_weights(G, T, T1)
    assert len(cw.weights) == len(T1.vertices())
    assert sum(collapsed(cw).weights) == G.total_weight


@settings(max_examples=200, deadline=None)
@given(near_trees())
def test_paths_cover_subtree_edges(gr):
    G, _ = gr
    T = compute_spanning_tree(G)
    R = extra_edges(G, T)
    T1 = steiner_subtree(T, edge_ends(R))
    U = branch_vertices(T1, edge_ends(R))
    Pi = path_lists(decompose_paths(T1, U))
    covered = sorted(
        (min(a, b), max(a, b)) for p in Pi for a, b in zip(p, p[1:])
    )
    assert covered == sorted((min(a, b), max(a, b)) for a, b in T1.edges())
    if len(U) >= 2:
        assert len(Pi) == len(U) - 1


@settings(max_examples=200, deadline=None)
@given(trees())
def test_centroid_halves_weight(G):
    if G.total_weight == 0:
        return
    c = tree_centroid(G)
    report = verify_separator(G, {c}, Fraction(1, 2))
    assert 2 * report.max_component_weight <= G.total_weight


@settings(max_examples=200, deadline=None)
@given(trees(max_n=16), st.data())
def test_steiner_matches_oracle(G, data):
    T = compute_spanning_tree(G)
    terms = data.draw(
        st.sets(st.integers(min_value=0, max_value=G.n - 1), min_size=1)
    )
    T1 = steiner_subtree(T, terms)
    assert set(T1.vertices()) == steiner_subtree_oracle(T, terms)


@settings(max_examples=200, deadline=None)
@given(trees(max_n=16), st.data())
def test_attach_matches_nearest_oracle(G, data):
    T = compute_spanning_tree(G)
    terms = data.draw(
        st.sets(st.integers(min_value=0, max_value=G.n - 1), min_size=1)
    )
    T1 = steiner_subtree(T, terms)
    cw = collapsed(collapse_weights(G, T, T1))
    assert cw.nearest == nearest_in_set_oracle(T, T1.vertices())


@settings(max_examples=150, deadline=None)
@given(near_trees())
def test_separator_verifies(gr):
    G, r = gr
    sep = separate(G)
    assert verify_separator(G, sep.vertices).passed
    assert sep.size <= 4 * (r + 1) ** 0.5 + 2


@settings(max_examples=200, deadline=None)
@given(near_trees(), st.sets(st.integers(min_value=0, max_value=3)))
def test_weight_partition(gr, raw_set):
    G, _ = gr
    S = {v for v in raw_set if v < G.n}
    report = verify_separator(G, S)
    assert sum(report.component_weights) + sum(G.weights[v] for v in S) == G.total_weight

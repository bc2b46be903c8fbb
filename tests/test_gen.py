"""Seeded generators: determinism, structure, planarity."""

import hashlib
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from atsep.errors import Infeasible
from atsep.fileformat import format_graph
from atsep.gen import (
    GenSpec,
    _chords_planar,
    assign_weights,
    generate,
    grid_graph,
    near_tree_planar,
    random_tree,
)
from atsep.graph import build_graph, is_connected

from conftest import star


def is_planar(G) -> bool:
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return nx.check_planarity(H)[0]


class TestRandomTree:
    def test_single_vertex(self):
        G = random_tree(1, 0)
        assert G.n == 1 and G.m == 0

    def test_tree_shape(self):
        G = random_tree(5, 3)
        assert G.m == 4
        assert is_connected(G)

    def test_deterministic(self):
        assert format_graph(random_tree(40, 9)) == format_graph(random_tree(40, 9))

    def test_seeds_differ(self):
        assert format_graph(random_tree(40, 1)) != format_graph(random_tree(40, 2))

    def test_empty_rejected(self):
        with pytest.raises(Infeasible):
            random_tree(0, 1)


class TestGridGraph:
    def test_3x3(self):
        G = grid_graph(3, 3)
        assert G.n == 9 and G.m == 12

    def test_1x5_is_path(self):
        G = grid_graph(1, 5)
        assert G.m == 4
        assert max(G.degree(v) for v in range(5)) == 2

    def test_2x2_is_c4(self):
        G = grid_graph(2, 2)
        assert G.n == 4 and G.m == 4
        assert all(G.degree(v) == 2 for v in range(4))


class TestNearTreePlanar:
    def test_small_instance(self):
        G = near_tree_planar(GenSpec(n=8, r=1, seed=7))
        assert G.n == 8 and G.m == 9
        assert is_connected(G)
        assert is_planar(G)

    def test_unicyclic(self):
        G = near_tree_planar(GenSpec(n=200, r=0, seed=1))
        assert G.m == G.n
        assert is_connected(G)
        assert is_planar(G)

    def test_over_maximal_planar_bound(self):
        # simple planar graphs have m <= 3n - 6
        with pytest.raises(Infeasible):
            near_tree_planar(GenSpec(n=20, r=35, seed=0))

    def test_tree_excess_rejected(self):
        with pytest.raises(Infeasible):
            near_tree_planar(GenSpec(n=10, r=-1, seed=0))

    def test_generated_instances_planar_connected(self):
        for (n, r, seed) in [(30, 3, 0), (60, 10, 4), (200, 50, 2)]:
            G = near_tree_planar(GenSpec(n=n, r=r, seed=seed))
            assert G.n == n and G.m == n + r
            assert is_connected(G)
            assert is_planar(G)

    def test_deterministic(self):
        a = near_tree_planar(GenSpec(n=50, r=8, seed=11))
        b = near_tree_planar(GenSpec(n=50, r=8, seed=11))
        assert format_graph(a) == format_graph(b)


def _root_path(parent: list[int], x: int) -> set[int]:
    path = {x}
    while parent[x] != x:
        x = parent[x]
        path.add(x)
    return path


@pytest.mark.parametrize("seed", range(12))
def test_chord_check_matches_networkx(seed):
    # near_tree_planar's check runs on the root paths of the chords' ends;
    # its verdict must be networkx's on the whole tree plus the chords,
    # for the chords it would accept and for those it would reject
    rng = random.Random(seed)
    n = rng.randrange(6, 40)
    parent = [0] + [rng.randrange(x) for x in range(1, n)]
    parent_array = np.array(parent, dtype=np.int64)
    H = nx.Graph((x, parent[x]) for x in range(1, n))
    core, ends = {0}, []
    accepted = rejected = 0
    for _ in range(4 * n):
        u, v = rng.sample(range(n), 2)
        if H.has_edge(u, v):
            continue
        members = core | _root_path(parent, u) | _root_path(parent, v)
        H.add_edge(u, v)
        planar = nx.check_planarity(H)[0]
        assert _chords_planar(parent_array, sorted(members), ends + [u, v]) == planar
        assert _chords_planar(parent_array, list(range(n)), ends + [u, v]) == planar
        if planar:
            core, ends = members, ends + [u, v]
            accepted += 1
        else:
            H.remove_edge(u, v)
            rejected += 1
    assert accepted and rejected


class TestAssignWeights:
    def test_unit(self):
        G = assign_weights(star(6), ("unit",), 0)
        assert G.total_weight == 6

    def test_uniform_range(self):
        G = assign_weights(star(50), ("uniform", 2, 5), 1)
        assert all(2 <= w <= 5 for w in G.weights)

    def test_single_heavy_majority(self):
        G = assign_weights(star(30), ("single_heavy", Fraction(7, 10)), 3)
        heavy = max(G.weights)
        assert heavy * 10 > 7 * G.total_weight

    def test_deterministic(self):
        a = assign_weights(star(30), ("uniform", 1, 100), 5)
        b = assign_weights(star(30), ("uniform", 1, 100), 5)
        assert a.weights == b.weights


class TestGenSpec:
    def test_tree_dispatch(self):
        G = generate(GenSpec(n=12, r=-1, seed=0))
        assert G.excess == -1

    def test_near_tree_dispatch(self):
        G = generate(GenSpec(n=12, r=2, seed=0))
        assert G.excess == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "r": 0, "seed": 0},
            {"n": 5, "r": -2, "seed": 0},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("bogus",)},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("single_heavy", Fraction(1, 3))},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("uniform", -3, 2)},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("uniform", 0, 0)},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("uniform", 5, 2)},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ()},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("uniform", 1)},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("single_heavy",)},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("single_heavy", "x")},
            {"n": 5, "r": 0, "seed": 0, "weight_mode": ("uniform", "a", "b")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(Infeasible):
            GenSpec(**kwargs)


# sha256 of format_graph(generate(spec)): a change to the tree shape, the
# tree walk that near_tree_planar's chord sampler reads, or the weights
# shifts every graph generated from a pinned seed
_PINNED_TEXTS = [
    ((40, -1, 3, ("unit",)),
     "b662ae26e89b0c6e87d2a3590f6fc281b26dabc8847b6997ebafcff0ac97bdf4"),
    ((10**5, -1, 1, ("uniform", 0, 9)),
     "3834da8f7090ce3aaf0a0553eab10df4a6b28bb9fb2282b40e8aebf7ce0de8db"),
    ((10**5, 0, 3, ("unit",)),
     "eb040d99894b8c1511f4a67b0c7589217ece648dc87abb2a5a7837bc535edd54"),
    ((60, 40, 2, ("single_heavy", Fraction(3, 4))),
     "8eef64732e4d15efac1472fb4661e1b9de0181aceb3efefafe1f892dc9a1f96f"),
    ((3000, 37, 5, ("uniform", 0, 9)),
     "8122eaca9cfc28b1a25d6d50697776393c382879739ad6b5489455ec080df49e"),
    ((20000, 250, 4, ("unit",)),
     "68f28a0a9843a2d02661bfff516c21a1479b4864e37d6346680827c398b8b62a"),
    ((10**5, 900, 13, ("unit",)),
     "80ab624a12fe713b8fd1564caa4247888479f07b199734492c38c38a3a4b6284"),
    # high excess: 127 full chord checks, 29 of them rejections
    ((200, 120, 1, ("unit",)),
     "67880b3c70eab7aee8dadaf7b96ae0fdf7bd88ef4e4e8959678c509d9bb02e5c"),
]


@pytest.mark.parametrize(
    "spec,digest", _PINNED_TEXTS, ids=[f"n={s[0]} r={s[1]}" for s, _ in _PINNED_TEXTS]
)
def test_generated_text_is_pinned(spec, digest):
    n, r, seed, weight_mode = spec
    text = format_graph(generate(GenSpec(n=n, r=r, seed=seed, weight_mode=weight_mode)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest

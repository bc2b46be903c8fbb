"""The planarity kernel's chain pass against the per-node loop it replaced.

``_planarity_kernel`` suppresses every maximal chain of degree-2 vertices
in one array pass before its peel-and-suppress loop. The kernel must be
the one the loop alone built (``kernel_reference.py``), on the compressed
graphs LT sees and on the shapes that stress the pass: one cycle, chains
that close on themselves, parallel chains whose merge cascades, and
pendant trees.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from atsep.errors import AtsepError, NotPlanar
from atsep.fileformat import parse_graph
from atsep.gen import GenSpec, generate, grid_graph
from atsep.graph import build_graph
from atsep.pipeline import (
    branch_vertices,
    build_compressed_graph,
    collapse_weights,
    compute_spanning_tree,
    decompose_paths,
    extra_edges,
    separate,
    steiner_subtree,
)
from atsep.planar import _planarity_kernel, lt_separator

from conftest import chained, cycle, edge_ends, path, stacked_triangulation, star, subdivided
from kernel_reference import reference_kernel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import gen  # noqa: E402

K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
K5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
K33 = [(u, v) for u in range(3) for v in range(3, 6)]


def compressed_graph(G):
    """The simple compressed graph that ``separate`` hands to LT."""
    T = compute_spanning_tree(G)
    R = extra_edges(G, T)
    terminals = edge_ends(R)
    T1 = steiner_subtree(T, terminals)
    U = branch_vertices(T1, terminals)
    C = build_compressed_graph(U, decompose_paths(T1, U), R, collapse_weights(G, T, T1))
    return C.simple_graph()


def check(G):
    """The kernel equals the reference's; returns it."""
    kernel = _planarity_kernel(G)
    assert kernel == reference_kernel(G)
    return kernel


def test_pool_compressed_graphs():
    tested = 0
    for j in range(gen.POOL):
        G = parse_graph(gen.small_instance(j).text())
        if G.excess >= 0:
            check(compressed_graph(G))
            tested += 1
    assert tested > 800


@pytest.mark.parametrize("core", ["stacked", "grid"])
def test_core_shaped_compressed_graphs(core):
    # about 10^4 nodes, nine in ten of degree 2, as LT sees on the
    # benchmark's 2 * 10^5-vertex inputs
    rng = random.Random(2)
    if core == "stacked":
        edges = stacked_triangulation(1000, rng).edges()
    else:
        edges = grid_graph(45, 45).edges()
    G = chained(edges, rng, 0, 5, hang=300)
    assert G.n > 8000
    kernel = check(G)
    assert 0 < len(kernel) < G.n / 4
    check(compressed_graph(G))


def test_random_planar_graphs():
    rng = random.Random(3)
    for seed in range(30):
        G = generate(GenSpec(n=rng.randint(20, 3000), r=rng.randint(0, 60), seed=seed))
        check(G)
        check(compressed_graph(G))
        H = stacked_triangulation(rng.randint(3, 80), rng)
        check(chained(H.edges(), rng, 0, 3, hang=rng.randint(0, 20)))


class TestKernelShapes:
    def test_one_cycle_leaves_nothing(self):
        assert check(cycle(3)) == check(cycle(1000)) == {}

    def test_trees_leave_nothing(self):
        assert check(path(1)) == check(path(2)) == check(path(500)) == check(star(40)) == {}

    def test_theta_cascades_to_nothing(self):
        # three chains between vertices 0 and 1 merge into one edge, which
        # leaves both ends with degree 1
        rng = random.Random(4)
        for lengths in [(1, 1, 1), (1, 5, 9), (20, 2, 7)]:
            n, edges = 2, []
            for k in lengths:
                chain = list(range(n, n + k))
                n += k
                edges += zip([0, *chain], [*chain, 1])
            G = build_graph(n, edges)
            assert check(G) == {}
            G = chained([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], rng, 0, 6)
            assert check(G) == {}

    def test_pendant_trees_on_chains(self):
        G = subdivided(K4, 30, random.Random(5), hang=40)
        assert check(G) == {u: set(range(4)) - {u} for u in range(4)}

    def test_chain_closing_on_its_start(self):
        # K4 with a cycle of 12 chain vertices through vertex 0: the chain
        # is a loop at 0 and goes, leaving K4
        edges = K4 + list(zip([0, *range(4, 16)], [*range(4, 16), 0]))
        assert check(build_graph(16, edges)) == {u: set(range(4)) - {u} for u in range(4)}

    def test_cycle_beside_a_component(self):
        # a component that is one cycle has no chain end to start from
        edges = K4 + [(4 + i, 4 + (i + 1) % 9) for i in range(9)]
        assert check(build_graph(13, edges)) == {u: set(range(4)) - {u} for u in range(4)}

    @pytest.mark.parametrize("edges,hang", [(K5, 30), (K33, 20)], ids=["k5", "k33"])
    def test_subdivided_kuratowski_graphs(self, edges, hang):
        rng = random.Random(6)
        G = subdivided(edges, 25, rng, hang=hang)
        kernel = check(G)
        assert sorted((u, v) for u, a in kernel.items() for v in a if u < v) == sorted(edges)
        with pytest.raises(NotPlanar, match=f"{G.n} vertices and {G.m} edges"):
            lt_separator(G)
        with pytest.raises(NotPlanar, match=f"{G.n} vertices and {G.m} edges"):
            separate(G)

    def test_cli_k33_with_pendant_path(self):
        # the input of the CLI's rejection check: a K3,3 whose edges are
        # chains of four vertices, plus a pendant path of two
        n, edges = 6, []
        for u, v in K33:
            chain = list(range(n, n + 4))
            n += 4
            edges += zip([u, *chain], [*chain, v])
        edges += [(6, n), (n, n + 1)]
        G = build_graph(n + 2, edges)
        assert len(check(G)) == 6
        with pytest.raises(AtsepError, match="graph with 44 vertices and 47 edges is not planar"):
            separate(G)

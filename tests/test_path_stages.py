"""The array path stages against their dict-walk reference, and the trace.

``steiner_subtree``, ``branch_vertices`` and ``decompose_paths`` must
give exactly what the reference in ``path_stages_reference`` gives: the
same membership, branch set, degrees, edges and paths, in the same order
and orientation. The paths come as one ``Paths`` record of int64 arrays
and are compared as lists.
"""

import gc
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atsep.gen import GenSpec, generate
from atsep.graph import SpanningTree, build_graph
from atsep.pipeline import (
    branch_vertices,
    compute_spanning_tree,
    decompose_paths,
    dump_stages,
    extra_edges,
    format_trace,
    steiner_subtree,
)

from conftest import edge_ends, path_lists, subdivided
from path_stages_reference import (
    reference_branch_vertices,
    reference_decompose_paths,
    reference_steiner_subtree,
)

GOLDEN_TRACE = Path(__file__).with_name("golden_trace.txt")


def check_against_reference(T, terminals):
    """Run the three stages and the reference; assert identical outputs."""
    member, adjacency = reference_steiner_subtree(T, terminals)
    T1 = steiner_subtree(T, terminals)
    assert T1.member.tolist() == member
    assert T1.vertices() == list(adjacency)
    assert [T1.degree(v) for v in adjacency] == [len(a) for a in adjacency.values()]
    assert T1.edges() == [(u, v) for u, nbrs in adjacency.items() for v in nbrs if u < v]
    U = branch_vertices(T1, terminals)
    branch = reference_branch_vertices(adjacency, terminals)
    assert U == sorted(branch)
    paths = decompose_paths(T1, U)
    assert paths.ends.dtype == paths.interiors.dtype == paths.offsets.dtype == np.int64
    assert paths.ends.shape == (len(paths), 2) and paths.offsets.shape == (len(paths) + 1,)
    Pi = path_lists(paths)
    assert Pi == reference_decompose_paths(adjacency, branch)
    return T1, U, Pi


def random_relabelled_tree(rng, n):
    """Parent array of a random tree with shuffled IDs and a random root.

    Half the trees attach each vertex to a uniform earlier one (shallow);
    the other half to one of the last three (long bare paths).
    """
    ids = list(range(n))
    rng.shuffle(ids)
    parent = [0] * n
    deep = rng.random() < 0.5
    for i in range(1, n):
        j = max(0, i - rng.randint(1, 3)) if deep else rng.randrange(i)
        parent[ids[i]] = ids[j]
    parent[ids[0]] = ids[0]
    return SpanningTree(root=ids[0], parent=parent)


def test_random_relabelled_trees():
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(1, 200)
        T = random_relabelled_tree(rng, n)
        k = rng.randint(1, max(1, n // rng.choice((1, 3, 10, 40))))
        check_against_reference(T, rng.sample(range(n), k))


@pytest.mark.parametrize(
    "n,r,seed",
    [(300, 0, 1), (500, 4, 2), (2000, 16, 3), (5000, 64, 4), (20_000, 256, 5),
     (50_000, 1024, 1)],
)
def test_generated_near_trees(n, r, seed):
    G = generate(GenSpec(n=n, r=r, seed=seed))
    T = compute_spanning_tree(G)
    terminals = edge_ends(extra_edges(G, T))
    _, U, Pi = check_against_reference(T, terminals)
    assert len(Pi) == len(U) - 1


def test_non_branch_top_joins_two_chains():
    # root 0 has two bare arms ending in terminals 3 and 6: top is 0, of
    # degree two and not a terminal, so one path runs through it
    T = SpanningTree(root=0, parent=[0, 0, 1, 2, 0, 4, 5])
    T1, U, Pi = check_against_reference(T, [6, 3])
    assert T1.top == 0 and T1.degree(0) == 2 and 0 not in U
    assert Pi == [[3, 2, 1, 0, 4, 5, 6]]


def test_broom_subtree_misses_root():
    # a 150-vertex handle from the root, then 300 bristles off its far
    # end, some of which carry terminals
    edges = [(i, i + 1) for i in range(149)]
    edges += [(149, 150 + i) for i in range(300)]
    edges += [(150 + i, 450 + i) for i in range(150)]
    T = compute_spanning_tree(build_graph(600, edges))
    T1, U, Pi = check_against_reference(T, [455, 470, 599])
    assert not T1.member[T.root]
    assert T1.top == 149 and 149 in U
    assert len(Pi) == 3


def test_single_terminal():
    T = SpanningTree(root=0, parent=[0, 0, 1, 2])
    T1, U, Pi = check_against_reference(T, [2])
    assert T1.vertices() == [2] and T1.top == 2 and T1.degree(2) == 0
    assert T1.edges() == []
    assert U == [2] and Pi == []


def test_trace_byte_for_byte():
    # the trace is the only reader of T1.edges(); this text was written by
    # the dict-walk stages
    trace = format_trace(dump_stages(generate(GenSpec(n=60, r=8, seed=3))))
    assert trace == GOLDEN_TRACE.read_text(encoding="utf-8")


def test_paths_hold_eight_bytes_per_interior_vertex():
    # a 45 x 45 grid with every edge subdivided by 50 vertices: about
    # 2 * 10^5 vertices, nearly all of them path interiors; the record
    # keeps each as one int64, where a Python list per path took about
    # 43 bytes a vertex
    grid = [(45 * i + j, 45 * i + j + 1) for i in range(45) for j in range(44)]
    grid += [(45 * i + j, 45 * i + j + 45) for i in range(44) for j in range(45)]
    G = subdivided(grid, 50, random.Random(1))
    T = compute_spanning_tree(G)
    terminals = edge_ends(extra_edges(G, T))
    T1 = steiner_subtree(T, terminals)
    U = branch_vertices(T1, terminals)
    interior = np.count_nonzero(T1.member) - len(U)
    assert interior > 150_000
    gc.collect()
    tracemalloc.start()
    try:
        paths = decompose_paths(T1, U)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(paths) == len(U) - 1
    assert live <= 8 * interior + 32 * len(paths) + 4096

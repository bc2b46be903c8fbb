"""Separating recursively: every piece of G - S is an input of its own.

A component of G - S is a connected planar graph with its own excess r,
so ``separate`` must meet its contract there too. The recursion separates
each input at one beta, then each component of 8 or more vertices, down
to the smallest, and checks every call: no exception, the exact balance
of ``verify_separator``, at most one repair and |S| <= 4 sqrt(r + 1) + 2.
It found LT's missing empty level: ``core2k_piece_1481.txt`` is the
1,481-vertex piece, six levels down in the benchmark's ``core-2k`` seed-1
instance 0, that got 17 vertices against a bound of 14, because LT's
upper window stopped at the deepest BFS level.

    PYTHONPATH=src python -m pytest tests/test_recursive.py
"""

import random
from fractions import Fraction
from math import sqrt
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from atsep.fileformat import load_graph
from atsep.gen import GenSpec, generate
from atsep.graph import build_graph, connected_components, verify_separator
from atsep.pipeline import separate
from atsep.planar import bfs_levels, lt_separator

from conftest import compressed_graph, subdivided

PIECE = Path(__file__).with_name("core2k_piece_1481.txt")
SMALLEST = 8
# the eight recursions below take 3-5 s on a 2-core host; the budget
# leaves ten times that for a slow spell
BUDGET_S = 60


def pieces(G, S):
    """Each component of G - S of ``SMALLEST`` or more vertices as a graph
    of its own: its vertices in ascending order, its edges in G's order."""
    comp = connected_components(G, removed=set(S))
    src = np.repeat(np.arange(G.n), np.diff(G.indptr))
    once = src < G.indices
    u, v = src[once], G.indices[once]
    for c in range(int(comp.max(initial=-1)) + 1):
        members = (comp == c).nonzero()[0]
        if members.size < SMALLEST:
            continue
        keep = (comp[u] == c) & (comp[v] == c)
        ends = np.searchsorted(members, np.column_stack((u[keep], v[keep])))
        yield build_graph(members.size, ends, G.weight_array[members].tolist())


def separate_recursively(G, beta):
    """Separate G and every piece below it; returns the number of calls
    and the worst |S| / bound. Fails on the first call out of contract."""
    stack, calls, worst = [G], 0, 0.0
    while stack:
        H = stack.pop()
        sep = separate(H, beta=beta)
        calls += 1
        bound = 4 * sqrt(max(H.excess, 0) + 1) + 2
        report = verify_separator(H, sep.vertices, beta)
        where = f"piece {calls}: n = {H.n}, m = {H.m}"
        assert report.passed and sep.max_component_weight == report.max_component_weight, where
        assert sep.repairs <= 1, f"{where}: {sep.repairs} repairs"
        assert sep.size <= bound, f"{where}: |S| = {sep.size} > {bound:.1f}"
        worst = max(worst, sep.size / bound)
        stack.extend(pieces(H, sep.vertices))
    return calls, worst


def grid(a, k):
    """An a x a grid with every edge a chain of k vertices, plus 200
    pendant trees: a near-tree whose separators grow like sqrt(r)."""
    edges = [(i * a + j, i * a + j + 1) for i in range(a) for j in range(a - 1)]
    edges += [(i * a + j, i * a + j + a) for i in range(a - 1) for j in range(a)]
    return subdivided(edges, k, random.Random(a), hang=200)


def test_recursion_stays_within_contract():
    cases = [(load_graph(PIECE), beta) for beta in (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))]
    cases += [(generate(GenSpec(n=20_000, r=16, seed=1)), Fraction(2, 3)),
              (generate(GenSpec(n=20_000, r=256, seed=1)), Fraction(2, 3)),
              (generate(GenSpec(n=5000, r=256, seed=2)), Fraction(3, 5))]
    cases += [(grid(30, 2), beta) for beta in (Fraction(3, 5), Fraction(3, 4))]
    t0 = perf_counter()
    calls = [separate_recursively(G, beta)[0] for G, beta in cases]
    elapsed = perf_counter() - t0
    # the recursion is deterministic, so its size is pinned
    assert calls == [215, 218, 223, 1867, 1801, 437, 527, 555]
    assert elapsed <= BUDGET_S, f"{sum(calls)} calls took {elapsed:.1f} s"


def test_piece_takes_the_empty_last_level():
    # the compressed graph has 49 nodes on BFS levels of 1, 6, 6, 18 and
    # 18, and its weighted median falls on level 2: level 3 costs 18,
    # level 4 costs 18 + 2, and the empty level 5, one past the deepest,
    # costs 0 + 2 * 2, so LT takes it and cuts nothing above the median
    G = load_graph(PIECE)
    assert (G.n, G.m) == (1481, 1489)
    Gc = compressed_graph(G)
    levels = bfs_levels(Gc, 0)[1]
    assert [len(level) for level in levels] == [1, 6, 6, 18, 18]
    lt = lt_separator(Gc)
    assert lt.level_info == {"l0": 0, "l1": 2, "l2": 5, "num_levels": 5}
    assert verify_separator(Gc, lt.vertices).passed
    sep = separate(G)
    assert sep.size <= 4 * sqrt(G.excess + 1) + 2
    assert (sep.size, sep.repairs) == (2, 0)


@pytest.mark.parametrize("legs", [5, 9])
def test_spider_takes_the_empty_last_level(legs):
    # legs of three vertices from the root: levels of 1, legs, legs and
    # legs vertices, the median on level 2; below it level 0 costs 1 + 4,
    # above it level 3 costs legs and the empty level 4 costs 2
    n = 1 + 3 * legs
    G = build_graph(n, [(0 if i < legs else i - legs + 1, i + 1) for i in range(n - 1)])
    assert [len(level) for level in bfs_levels(G, 0)[1]] == [1, legs, legs, legs]
    lt = lt_separator(G)
    assert lt.level_info == {"l0": 0, "l1": 2, "l2": 4, "num_levels": 4}
    assert sorted(lt.vertices) == [0] and verify_separator(G, lt.vertices).passed

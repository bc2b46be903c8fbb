"""Exhaustive ground-truth oracles on small instances."""

import random
from fractions import Fraction

import pytest

from atsep.errors import EmptyTerminals, TooLarge
from atsep.gen import grid_graph
from atsep.graph import SpanningTree, build_graph, verify_separator
from atsep.oracle import (
    min_balanced_separator,
    nearest_in_set_oracle,
    steiner_subtree_oracle,
)
from atsep.pipeline import compute_spanning_tree

from conftest import complete, cycle, path, random_parent_tree


class TestMinBalancedSeparator:
    def test_c6(self):
        # {0,1} leaves a path of weight 4 = (2/3) * 6; the balance bound
        # is inclusive, so the lexicographically first witness wins
        result = min_balanced_separator(cycle(6))
        assert result.min_size == 2
        assert result.witness == (0, 1)

    def test_c6_tighter_balance(self):
        result = min_balanced_separator(cycle(6), beta=Fraction(3, 5))
        assert result.min_size == 2
        assert result.witness == (0, 2)

    def test_k4(self):
        # any single removal leaves a K3 of weight 3 > 8/3
        assert min_balanced_separator(complete(4)).min_size == 2

    def test_grid_3x3(self):
        # {1,3} cuts off corner 0; the rest weighs 6 = (2/3) * 9 exactly
        assert min_balanced_separator(grid_graph(3, 3)).min_size == 2
        assert min_balanced_separator(grid_graph(3, 3), beta=Fraction(3, 5)).min_size == 3

    def test_witness_verifies(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 9)
            G = random_parent_tree(rng, n)
            result = min_balanced_separator(G, max_size=n)
            assert result.feasible
            assert verify_separator(G, result.witness).passed
            # no smaller set passes at min_size - 1 by construction of the scan

    def test_monotone_in_beta(self):
        G = cycle(8)
        loose = min_balanced_separator(G, beta=Fraction(3, 4)).min_size
        tight = min_balanced_separator(G, beta=Fraction(2, 3)).min_size
        assert loose <= tight

    def test_respects_max_size(self):
        result = min_balanced_separator(complete(4), max_size=1)
        assert not result.feasible
        assert result.min_size is None

    def test_too_large_graph(self):
        G = build_graph(21, [(i, i + 1) for i in range(20)])
        with pytest.raises(TooLarge):
            min_balanced_separator(G)

    def test_max_size_beyond_n(self):
        with pytest.raises(TooLarge):
            min_balanced_separator(path(3), max_size=4)

    @pytest.mark.parametrize("max_size", [-1, -2])
    def test_negative_max_size_raises(self, max_size):
        with pytest.raises(ValueError, match=f"max_size must be at least 0, got {max_size}"):
            min_balanced_separator(path(3), max_size=max_size)


class TestSteinerOracle:
    def test_path_tree(self):
        T = SpanningTree(root=0, parent=[0, 0, 1, 2, 3])
        assert steiner_subtree_oracle(T, {1, 3}) == {1, 2, 3}

    def test_single_terminal(self):
        T = SpanningTree(root=0, parent=[0, 0, 1])
        assert steiner_subtree_oracle(T, {2}) == {2}

    def test_empty_raises(self):
        T = SpanningTree(root=0, parent=[0])
        with pytest.raises(EmptyTerminals):
            steiner_subtree_oracle(T, set())


class TestNearestOracle:
    def test_single_target(self):
        G = path(5)
        T = compute_spanning_tree(G)
        assert nearest_in_set_oracle(T, {2}) == [2] * 5

    def test_all_targets_is_identity(self):
        G = path(4)
        T = compute_spanning_tree(G)
        assert nearest_in_set_oracle(T, set(range(4))) == [0, 1, 2, 3]

    def test_tie_goes_to_lower_id(self):
        G = path(3)
        T = compute_spanning_tree(G)
        # vertex 1 is at distance 1 from both targets
        assert nearest_in_set_oracle(T, {0, 2}) == [0, 0, 2]

    def test_empty_raises(self):
        T = SpanningTree(root=0, parent=[0])
        with pytest.raises(EmptyTerminals):
            nearest_in_set_oracle(T, set())

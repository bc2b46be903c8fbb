"""The three O(n) stages that work in blocks, groups or int32 pointers.

The leaf hanging reads ``_LEAF_BLOCK`` vertices at a time, ``extra_edges``
counts tree degrees per group of 2^``_GROUP_SHIFT`` vertices over blocks
of ``_PARENT_BLOCK`` parents, and ``_entries`` jumps int32 pointers below
``_INT32_LIMIT``. Each test shrinks those constants so that small graphs
cross every boundary, and checks the stage against a plain reference.
"""

import random

import numpy as np
import pytest

import atsep.graph
import atsep.pipeline
from atsep.errors import Disconnected
from atsep.gen import GenSpec, generate
from atsep.graph import build_graph
from atsep.pipeline import (
    _entries,
    collapse_weights,
    compute_spanning_tree,
    extra_edges,
    separate,
    steiner_subtree,
)

from conftest import edge_ends, row


def walked_parents(G, root):
    """The parents of a walk that hangs no leaf."""
    parent = np.empty(G.n, dtype=np.int64)
    for _ in atsep.graph._bfs_layers(G, root, parent):
        pass
    return parent


def near_tree_with_leaves(seed, n, r, leaves):
    """A generated near-tree plus pendant leaves, under shuffled IDs."""
    rng = random.Random(seed)
    G = generate(GenSpec(n=n, r=r, seed=seed))
    edges = list(G.edges()) + [(rng.randrange(v), v) for v in range(n, n + leaves)]
    ids = list(range(n + leaves))
    rng.shuffle(ids)
    return build_graph(n + leaves, [(ids[u], ids[v]) for u, v in edges])


def reference_extra_edges(G, parent):
    """R by its definition: each non-tree edge (u, v), u < v, by u and then
    by v's place in u's row."""
    return [[u, v] for u in range(G.n) for v in row(G, u)
            if u < v and parent[u] != v and parent[v] != u]


class TestLeafBlocks:
    @pytest.mark.parametrize("block", [1, 2, 3, 8])
    def test_parents_match_the_full_walk(self, monkeypatch, block):
        monkeypatch.setattr(atsep.graph, "_LEAF_BLOCK", block)
        rng = random.Random(block)
        for seed in range(12):
            G = near_tree_with_leaves(seed, rng.randint(4, 60), rng.randint(0, 6),
                                      rng.randint(0, 40))
            root = rng.randrange(G.n)
            assert np.array_equal(compute_spanning_tree(G, root).parent, walked_parents(G, root))

    def test_leaves_on_both_sides_of_a_boundary(self, monkeypatch):
        # blocks of 4: leaves 3 | 4 and 7 | 8 sit on both sides of two
        # boundaries, and 8 and 9 hang off vertex 2 of the first block
        monkeypatch.setattr(atsep.graph, "_LEAF_BLOCK", 4)
        G = build_graph(10, [(0, 1), (1, 2), (2, 0), (0, 5), (5, 6), (6, 0),
                             (1, 3), (5, 4), (6, 7), (2, 8), (2, 9)])
        parent = np.empty(G.n, dtype=np.int64)
        seen = atsep.graph._hang_leaves(G, 0, parent)
        assert (np.frombuffer(seen, dtype=np.uint8) == 2).nonzero()[0].tolist() == [3, 4, 7, 8, 9]
        assert parent[[3, 4, 7, 8, 9]].tolist() == [1, 5, 6, 2, 2]
        assert np.array_equal(compute_spanning_tree(G).parent, walked_parents(G, 0))

    @pytest.mark.parametrize("pair", [(3, 20), (7, 8), (17, 19)])
    def test_adjacent_leaves_found_late_hang_nothing(self, monkeypatch, pair):
        # a star on 0 whose leaves fill every block, and a K2 apart: the
        # block of its later leaf finds the other marked, every leaf hung
        # before is taken back, and the count of reached vertices is exact
        monkeypatch.setattr(atsep.graph, "_LEAF_BLOCK", 8)
        n = 24
        a, b = pair
        G = build_graph(n, [(0, v) for v in range(1, n) if v not in pair] + [(a, b)])
        parent = np.empty(n, dtype=np.int64)
        seen = atsep.graph._hang_leaves(G, 0, parent)
        assert not any(seen) and (parent == n).all()
        with pytest.raises(Disconnected, match=f"only {n - 2} of {n} vertices") as info:
            compute_spanning_tree(G)
        assert info.value.reached == n - 2

    def test_root_of_degree_one_in_a_later_block(self, monkeypatch):
        # a root of degree one is not hung, and a leaf may hang off it
        monkeypatch.setattr(atsep.graph, "_LEAF_BLOCK", 2)
        G = build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 5), (5, 6), (1, 3), (0, 4)])
        K2 = build_graph(2, [(0, 1)])
        for G, root, hung in ((G, 6, [3, 4]), (G, 3, [4, 6]), (K2, 1, [0])):
            parent = np.empty(G.n, dtype=np.int64)
            seen = atsep.graph._hang_leaves(G, root, parent)
            assert (np.frombuffer(seen, dtype=np.uint8) == 2).nonzero()[0].tolist() == hung
            assert np.array_equal(compute_spanning_tree(G, root).parent, walked_parents(G, root))


class TestGroupedExtraEdges:
    @staticmethod
    def shrink(monkeypatch, shift, block):
        monkeypatch.setattr(atsep.pipeline, "_GROUP_SHIFT", shift)
        monkeypatch.setattr(atsep.pipeline, "_PARENT_BLOCK", block)

    @pytest.mark.parametrize("shift,block", [(1, 4), (2, 5), (3, 16), (3, 1)])
    def test_random_near_trees_match_the_reference(self, monkeypatch, shift, block):
        self.shrink(monkeypatch, shift, block)
        rng = random.Random(shift * 100 + block)
        for seed in range(20):
            n = rng.randint(max(block + 1, 8), 300)
            G = near_tree_with_leaves(seed, n, rng.randint(0, min(40, 2 * n - 7)),
                                      rng.randint(0, 30))
            T = compute_spanning_tree(G, rng.randrange(G.n))
            R = extra_edges(G, T)
            assert R.dtype == np.int64 and R.shape == (G.m - G.n + 1, 2)
            assert R.tolist() == reference_extra_edges(G, T.parent.tolist())

    @pytest.mark.parametrize("n", [33, 35, 39])
    def test_short_last_group_holding_the_root(self, monkeypatch, n):
        # groups of 8 over n = 8k + 1..7: the last group is short, and the
        # root sits in it, so the group takes the root's two off its sum
        self.shrink(monkeypatch, 3, 8)
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0), (n - 3, 2), (n - 1, 9)]
        G = build_graph(n, edges)
        for root in (n - 1, n - 2, 0):
            T = compute_spanning_tree(G, root)
            assert extra_edges(G, T).tolist() == reference_extra_edges(G, T.parent.tolist())

    @staticmethod
    def rows_read(monkeypatch):
        """The vertices whose rows each ``extra_edges`` call reads."""
        reads = []
        real = atsep.pipeline._frontier_neighbors

        def recording(indptr, indices, frontier):
            reads.append(frontier.tolist())
            return real(indptr, indices, frontier)

        monkeypatch.setattr(atsep.pipeline, "_frontier_neighbors", recording)
        return reads

    # a path of 40 with the chord 5-9: from 0, vertices 7 and 8 both lie 7
    # levels down, so 7-8 is the one non-tree edge
    CHORDED = [(i, i + 1) for i in range(39)] + [(5, 9)]

    def test_flagged_group_reads_tree_only_rows(self, monkeypatch):
        # groups of 8: 7-8 flags groups 0 and 1, whose 14 other rows hold
        # only tree edges (5-9 among them), which the exact test drops
        self.shrink(monkeypatch, 3, 8)
        reads = self.rows_read(monkeypatch)
        G = build_graph(40, self.CHORDED)
        assert extra_edges(G, compute_spanning_tree(G)).tolist() == [[7, 8]]
        assert reads == [list(range(16))]

    def test_graph_of_one_block_counts_per_vertex(self, monkeypatch):
        reads = self.rows_read(monkeypatch)
        G = build_graph(40, self.CHORDED)
        assert extra_edges(G, compute_spanning_tree(G)).tolist() == [[7, 8]]
        assert reads == [[7, 8]]


class TestEntryPointers:
    @staticmethod
    def cases():
        rng = random.Random(5)
        for seed in range(8):
            n = rng.randint(50, 3000)
            G = generate(GenSpec(n=n, r=rng.randint(1, 40), seed=seed,
                                 weight_mode=("uniform", 1, 9)))
            T = compute_spanning_tree(G, rng.randrange(n))
            T1 = steiner_subtree(T, edge_ends(extra_edges(G, T)))
            marked = T1.member.copy()
            marked[rng.sample(range(n), 5)] = True
            yield G, T, T1.member, marked

    @pytest.mark.parametrize("chunk", [7, 2**15])
    def test_int64_pointers_give_the_same_slots_and_sums(self, monkeypatch, chunk):
        monkeypatch.setattr(atsep.pipeline, "_JUMP_CHUNK", chunk)
        for G, T, member, marked in self.cases():
            for mark in (member, marked):
                narrow = _entries(T.parent, T.root, mark, G.weight_array, index=True)
                with monkeypatch.context() as m:
                    m.setattr(atsep.pipeline, "_INT32_LIMIT", 0)
                    wide = _entries(T.parent, T.root, mark, G.weight_array, index=True)
                assert narrow[4].dtype == np.int32 and wide[4].dtype == np.int64
                assert narrow[1].dtype == wide[1].dtype == np.int64
                entries, up, top, sums, index = narrow
                assert np.array_equal(entries, wide[0]) and np.array_equal(up, wide[1])
                assert top == wide[2] and np.array_equal(sums, wide[3])
                assert np.array_equal(index, wide[4])
                # each vertex's slot is that of its nearest entry on its root path
                ids = entries.nonzero()[0]
                for v in range(0, G.n, 37):
                    u = v
                    while not entries[u]:
                        u = T.parent[u]
                    assert ids[index[v]] == u
                want = np.zeros(ids.size, dtype=np.int64)
                np.add.at(want, index.astype(np.int64), G.weight_array)
                assert np.array_equal(sums, want) and sums.sum() == G.total_weight

    def test_separators_do_not_depend_on_the_pointer_width(self, monkeypatch):
        for G, T, member, _ in self.cases():
            T1 = steiner_subtree(T, edge_ends(extra_edges(G, T)))
            narrow, want = collapse_weights(G, T, T1), separate(G)
            with monkeypatch.context() as m:
                m.setattr(atsep.pipeline, "_INT32_LIMIT", 0)
                wide = collapse_weights(G, T, T1)
                assert separate(G) == want
            assert np.array_equal(narrow.weights, wide.weights)
            assert np.array_equal(narrow.sums, wide.sums)
            assert np.array_equal(narrow.up, wide.up) and narrow.top == wide.top

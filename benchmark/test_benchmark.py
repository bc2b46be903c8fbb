"""Tests of the benchmark's own generator, checker and tracer.

Run from the root of a checkout: ``python3 -m pytest benchmark``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402


def _small(kind, trees="any", fixed_core_ids=False, mode="unit", seed=3):
    rng = np.random.default_rng(seed)
    if kind == "stacked":
        r, core = 9, gen.stacked_core(rng, 9)
    elif kind == "grid":
        r, core = 3 * 4 - 3 - 4, gen.grid_core(3, 4)
    else:
        r, core = -1, (1, [])
    return gen.build(rng, kind, 120, r, core, 40, mode, Fraction(2, 3),
                     trees=trees, fixed_core_ids=fixed_core_ids)


@pytest.mark.parametrize("kind", ["stacked", "grid", "tree"])
@pytest.mark.parametrize("trees", ["any", "core"])
@pytest.mark.parametrize("mode", gen.WEIGHT_MODES)
def test_small_instances_are_planar_near_trees(kind, trees, mode):
    inst = _small(kind, trees=trees, mode=mode)
    H = nx.Graph()
    H.add_nodes_from(range(inst.n))
    H.add_edges_from(inst.edges.tolist())
    assert nx.is_connected(H)
    assert H.number_of_edges() == inst.m == inst.n + inst.r
    assert nx.check_planarity(H)[0]
    assert (inst.weights >= 1).all()


def test_stacked_core_is_trimmed_to_r():
    rng = np.random.default_rng(0)
    for r in range(0, 40):
        k, edges = gen.stacked_core(rng, r)
        assert len(edges) - k == r


def test_trees_on_core_split_evenly_and_core_keeps_its_ids():
    rng = np.random.default_rng(1)
    inst = gen.build(rng, "g", 100, 5, gen.grid_core(3, 4), 0, "unit", Fraction(2, 3),
                     trees="core", fixed_core_ids=True)
    G = nx.Graph(inst.edges.tolist())
    assert set(nx.subgraph(G, range(12)).edges) == set(map(tuple, gen.grid_core(3, 4)[1]))
    G.remove_edges_from(gen.grid_core(3, 4)[1])
    sizes = sorted(len(nx.node_connected_component(G, c)) for c in range(12))
    assert sum(sizes) == 100 and sizes[-1] - sizes[0] <= 1


def test_heavy_mode_holds_seventy_percent():
    inst = _small("stacked", mode="heavy")
    assert 0.7 <= inst.weights.max() / inst.weights.sum() < 0.71


def test_same_seed_same_inputs_and_pool_ignores_seed():
    a, b = gen.small_instance(5), gen.small_instance(5)
    assert np.array_equal(a.edges, b.edges) and np.array_equal(a.weights, b.weights)
    x = [i.name for i in gen.many_small(1)]
    y = [i.name for i in gen.many_small(2)]
    assert x != y
    assert x[gen.STRATA:] == y[gen.STRATA:] == [f"many-small/{j}" for j in gen.KNOWN_FAULT]
    drawn = [int(name.split("/")[1]) for name in x[: gen.STRATA]]
    assert [j // gen.PER_STRATUM for j in drawn] == list(range(gen.STRATA))
    assert not set(drawn) & set(gen.KNOWN_FAULT)


def test_members_of_a_stratum_share_their_parameters():
    a, b = gen.small_instance(30), gen.small_instance(31)
    assert (a.n, a.r, a.beta, a.params) == (b.n, b.r, b.beta, b.params)
    assert not np.array_equal(a.edges, b.edges)


def test_text_round_trips_through_parse_graph():
    from atsep.fileformat import parse_graph

    inst = _small("grid", mode="uniform")
    G = parse_graph(inst.text())
    assert G.n == inst.n and G.m == inst.m
    assert G.weights == inst.weights.tolist()
    assert sorted(G.edges()) == sorted(map(tuple, inst.edges.tolist()))


def _path(n, beta=Fraction(2, 3)):
    edges = np.array([(i, i + 1) for i in range(n - 1)], dtype=np.int64).reshape(-1, 2)
    return gen.Instance("path", n, -1, edges, np.ones(n, dtype=np.int64), beta)


def test_checker_accepts_the_middle_of_a_path():
    assert check.check_separator(_path(7), [3]) is None


@pytest.mark.parametrize(
    "S, why",
    [
        ([], "exceeds the bound"),  # a tree needs |S| = 1
        ([0], "component of weight"),  # an unbalanced single vertex
        ([7], "out of range"),
        ([-1], "out of range"),
        ([3, 3], "repeat"),
        ([2, 4], "exceeds the bound"),
    ],
)
def test_checker_rejects_wrong_answers(S, why):
    assert why in check.check_separator(_path(7), S)


def test_checker_balance_is_exact():
    # cycle of 6, S = {0, 3}: two components of weight 2 each; W = 6
    edges = np.array([(i, (i + 1) % 6) for i in range(6)], dtype=np.int64)
    edges = np.sort(edges, axis=1)
    inst = gen.Instance("c6", 6, 0, edges, np.ones(6, dtype=np.int64), Fraction(1, 3))
    assert check.check_separator(inst, [0, 3]) is None  # 2 * 3 <= 6 * 1
    inst.beta = Fraction(1, 4)
    assert "component of weight" in check.check_separator(inst, [0, 3])
    inst.beta = Fraction(2, 3)
    assert check.check_separator(inst, []) is not None  # one component of 6


def test_size_bound():
    assert check.size_bound(-1) == 1
    assert check.size_bound(0) == 6  # 4 sqrt(1) + 2
    assert check.size_bound(15) == 18
    assert check.size_bound_ok(8, 2) and not check.size_bound_ok(9, 2)  # 4 sqrt(3) + 2 = 8.93


def test_checker_accepts_what_atsep_returns():
    import atsep
    from atsep.fileformat import parse_graph

    for i in range(0, 60, 7):
        inst = gen.small_instance(i)
        if i in gen.KNOWN_FAULT:
            continue
        sep = atsep.separate(parse_graph(inst.text()), beta=inst.beta)
        assert check.check_separator(inst, sep.vertices) is None


def test_tracer_records_nested_spans_and_restores_everything():
    import atsep
    import atsep.graph
    import atsep.planar
    from atsep.fileformat import parse_graph

    inst = _small("stacked")
    before = (atsep.separate, atsep.pipeline.verify_separator, atsep.planar.nx,
              atsep.graph.Graph.__dict__["m"])
    plain = atsep.separate(parse_graph(inst.text()), beta=inst.beta).vertices

    tracer = Tracer()
    tracer.install()
    try:
        tracer.call = 0
        G = atsep.fileformat.parse_graph(inst.text())
        traced = atsep.separate(G, beta=inst.beta).vertices
    finally:
        tracer.uninstall()

    assert traced == plain
    assert before == (atsep.separate, atsep.pipeline.verify_separator, atsep.planar.nx,
                      atsep.graph.Graph.__dict__["m"])
    names = [s[0] for s in tracer.spans]
    for name in ("fileformat.parse_graph", "graph.build_graph", "pipeline.separate",
                 "planar.lt_separator", "planar.nx_check_planarity", "graph.Graph.m",
                 "graph.verify_separator"):
        assert name in names
    assert tracer.counts_of("pipeline.extra_edges", 0) == [{"edges": inst.r + 1}]
    m = tracer.metrics()
    assert m["pipeline.separate.calls"] == 1
    assert 0 <= m["pipeline.separate.self_s"] <= m["pipeline.separate.s"]
    assert m["planar.lt_separator.verify_calls"] >= 1
    assert m["planar.lt_separator.components_calls"] >= m["planar.lt_separator.verify_calls"]
    # parse_graph's span is the parent of build_graph's
    parse = names.index("fileformat.parse_graph")
    assert tracer.spans[names.index("graph.build_graph")][3] == parse

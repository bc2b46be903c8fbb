"""Acceptance criteria for the separator pipeline.

Each test covers one criterion and emits a single PASS/FAIL line on the
terminal (bypassing capture) so the gate is readable from any run.
"""

import random
import statistics
from fractions import Fraction
from math import sqrt
from time import perf_counter

import numpy as np
import pytest

from atsep.gen import GenSpec, assign_weights, generate, grid_graph
from atsep.graph import build_graph, verify_separator
from atsep.oracle import (
    min_balanced_separator,
    nearest_in_set_oracle,
    steiner_subtree_oracle,
)
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
from atsep.planar import lt_separator

from conftest import collapsed, edge_ends, path_lists, random_parent_tree


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_size_bound(capsys):
    """n=1e5, r in {1,4,16,64,256,1024}, 20 seeds: |S| <= 4*sqrt(r+1)+2, balanced."""
    failures = []
    worst = 0.0
    for r in (1, 4, 16, 64, 256, 1024):
        bound = 4 * sqrt(r + 1) + 2
        for seed in range(20):
            G = generate(GenSpec(n=100_000, r=r, seed=seed))
            sep = separate(G)
            ok = sep.size <= bound and verify_separator(G, sep.vertices).passed
            worst = max(worst, sep.size / bound)
            if not ok:
                failures.append((r, seed, sep.size))
    report(
        capsys,
        "1 size-bound",
        not failures,
        f"120 runs, worst size/bound = {worst:.2f}, failures = {failures}",
    )


def test_02_validity_vs_oracle(capsys):
    """200 random planar graphs n<=12: pipeline valid wherever oracle is feasible."""
    rng = random.Random(1234)
    modes = [("unit",), ("uniform", 1, 10), ("single_heavy", Fraction(7, 10))]
    failures = 0
    for i in range(200):
        n = rng.randint(4, 12)
        r = rng.randint(0, min(4, 2 * n - 7))
        G = generate(GenSpec(n=n, r=r, seed=i, weight_mode=modes[i % 3]))
        result = min_balanced_separator(G, max_size=n)
        if not result.feasible:
            continue
        sep = separate(G)
        if not verify_separator(G, sep.vertices).passed:
            failures += 1
    report(capsys, "2 oracle-validity", failures == 0, f"200 instances, {failures} failures")


def test_03_linear_time(capsys):
    """r=16, n in {1e4, 1e5, 1e6}, 5 seeds: median wall grows <= 13x per 10x."""
    import gc

    medians = []
    for n in (10_000, 100_000, 1_000_000):
        walls = []
        for seed in range(5):
            G = generate(GenSpec(n=n, r=16, seed=seed))
            # keep cyclic-GC pauses from earlier tests out of the timing
            gc.collect()
            gc.disable()
            t0 = perf_counter()
            sep = separate(G)
            walls.append(perf_counter() - t0)
            gc.enable()
            assert verify_separator(G, sep.vertices).passed
            del G
        medians.append(statistics.median(walls))
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    report(
        capsys,
        "3 linear-time",
        all(rat <= 13 for rat in ratios),
        "medians " + ", ".join(f"{m * 1000:.0f}ms" for m in medians)
        + "; ratios " + ", ".join(f"{rat:.1f}" for rat in ratios),
    )


def test_04_degenerate_heavy_vertex(capsys):
    """star(100)+chord with single_heavy(0.7): repairs >= 1 and size <= 4."""
    edges = [(0, v) for v in range(1, 100)] + [(1, 2)]
    G = assign_weights(
        build_graph(100, edges), ("single_heavy", Fraction(7, 10)), 0
    )
    sep = separate(G)
    ok = (
        sep.repairs >= 1
        and sep.size <= 4
        and verify_separator(G, sep.vertices).passed
    )
    report(
        capsys,
        "4 heavy-vertex",
        ok,
        f"repairs = {sep.repairs}, size = {sep.size}",
    )


def _stacked_triangulation(n, seed):
    """Planar triangulation built by repeatedly subdividing a random face."""
    rng = np.random.default_rng(seed)
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = int(rng.integers(len(faces)))
        a, b, c = faces[i]
        faces[i] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
        edges |= {(a, v), (b, v), (c, v)}
    return build_graph(n, sorted(edges))


def test_05_lt_standalone(capsys):
    """Grids and 100 random triangulations: verified and |S| <= 4*sqrt(n)."""
    failures = []
    for a in (5, 10, 20, 30):
        G = grid_graph(a, a)
        lt = lt_separator(G)
        if not (
            verify_separator(G, lt.vertices).passed
            and len(lt.vertices) <= 4 * sqrt(G.n)
        ):
            failures.append(("grid", a))
    rng = np.random.default_rng(99)
    for k in range(100):
        n = int(rng.integers(4, 201))
        G = _stacked_triangulation(n, 1000 + k)
        lt = lt_separator(G)
        if not (
            verify_separator(G, lt.vertices).passed
            and len(lt.vertices) <= 4 * sqrt(n)
        ):
            failures.append(("tri", k))
    report(capsys, "5 lt-standalone", not failures, f"104 runs, failures = {failures}")


def test_06_structural_invariants(capsys):
    """1000 random cases per structural invariant, zero failures."""
    rng = random.Random(777)
    failures = []

    for case in range(1000):
        n = rng.randint(4, 24)
        r = rng.randint(0, min(5, 2 * n - 7))
        G = generate(GenSpec(n=n, r=r, seed=case))
        T = compute_spanning_tree(G)
        R = extra_edges(G, T)
        if len(R) != G.m - G.n + 1:
            failures.append(("edge-count", case))
        T1 = steiner_subtree(T, edge_ends(R))
        U = branch_vertices(T1, edge_ends(R))
        if len(U) > 4 * (r + 1):
            failures.append(("branch-bound", case))
        cw = collapsed(collapse_weights(G, T, T1))
        if sum(cw.weights) != G.total_weight:
            failures.append(("weight-conservation", case))
        Pi = path_lists(decompose_paths(T1, U))
        covered = sorted(
            (min(a, b), max(a, b)) for p in Pi for a, b in zip(p, p[1:])
        )
        if covered != sorted((min(a, b), max(a, b)) for a, b in T1.edges()):
            failures.append(("path-cover", case))

    for case in range(1000):
        n = rng.randint(1, 20)
        G = random_parent_tree(rng, n)
        weights = [rng.randint(0, 20) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        H = build_graph(n, G.edges(), weights)
        c = tree_centroid(H)
        if 2 * verify_separator(H, {c}).max_component_weight > H.total_weight:
            failures.append(("centroid", case))

    for case in range(1000):
        n = rng.randint(2, 14)
        G = random_parent_tree(rng, n)
        T = compute_spanning_tree(G)
        terms = rng.sample(range(n), rng.randint(1, n))
        T1 = steiner_subtree(T, terms)
        if set(T1.vertices()) != steiner_subtree_oracle(T, terms):
            failures.append(("steiner-oracle", case))
        cw = collapsed(collapse_weights(G, T, T1))
        if cw.nearest != nearest_in_set_oracle(T, T1.vertices()):
            failures.append(("attach-oracle", case))

    report(
        capsys,
        "6 structural-invariants",
        not failures,
        f"5 x 1000 case blocks, failures = {failures[:5]}",
    )

"""scripts/bench_record.py's comparison of a parent and a change."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def run(workload, seed, trace=0, **values):
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": 1.0,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}}


BETTER = {"separate_s_p50": "lower", "edges_per_s": "higher", "sep_size_mean": "lower"}


def test_wins_and_median_ratio():
    parent = [run("core-2k", s, separate_s_p50=0.5, edges_per_s=100.0, sep_size_mean=24.0)
              for s in (1, 2, 3, 4)]
    change = [run("core-2k", 1, separate_s_p50=0.4, edges_per_s=120.0, sep_size_mean=24.0),
              run("core-2k", 2, separate_s_p50=0.45, edges_per_s=90.0, sep_size_mean=24.0),
              run("core-2k", 3, separate_s_p50=0.6, edges_per_s=130.0, sep_size_mean=24.0),
              run("core-2k", 4, separate_s_p50=0.35, edges_per_s=110.0, sep_size_mean=24.0)]
    table = bench_record.compare(parent, change, BETTER)
    core = table["core-2k"]
    assert core["separate_s_p50"]["wins"] == 3 and core["separate_s_p50"]["pairs"] == 4
    assert abs(core["separate_s_p50"]["median_ratio"] - 0.85) < 1e-12
    assert core["edges_per_s"]["wins"] == 3
    assert abs(core["edges_per_s"]["median_ratio"] - 1.15) < 1e-12
    # a tie is no win
    assert core["sep_size_mean"] == {"wins": 0, "pairs": 4, "median_ratio": 1.0}


def test_pairs_by_workload_and_seed_at_trace_0():
    parent = [run("forest-1m", 1, separate_s_p50=0.3), run("forest-1m", 2, separate_s_p50=0.3),
              run("many-small", 1, separate_s_p50=0.0),
              run("forest-1m", 1, trace=1, separate_s_p50=9.0)]
    change = [run("forest-1m", 2, separate_s_p50=0.2), run("forest-1m", 1, separate_s_p50=0.33),
              run("many-small", 1, separate_s_p50=0.001), run("many-small", 9, separate_s_p50=0.1),
              run("forest-1m", 1, trace=1, separate_s_p50=0.1)]
    table = bench_record.compare(parent, change, BETTER)
    assert table["forest-1m"]["separate_s_p50"]["wins"] == 1
    assert table["forest-1m"]["separate_s_p50"]["pairs"] == 2
    # seed 9 has no parent run, and a parent value of 0 gives no ratio
    assert table["many-small"]["separate_s_p50"] == {"wins": 0, "pairs": 1, "median_ratio": None}
    lines = bench_record.format_comparison(table)
    assert "many-small separate_s_p50: change better in 0 of 1 pairs, " \
           "median ratio change/parent n/a" in lines
    assert len(lines) == 2


def test_metric_directions_come_from_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    assert {k: better[k] for k in BETTER} == BETTER

#!/usr/bin/env python3
"""Write BENCH_<rev>.json files from benchmark/run.py results.

Runs ``python3 benchmark/run.py``, at its own fixed run length, in each
given checkout, for every workload and seed at ``--trace 0`` and then
once per workload at ``--trace 1``. The checkouts take turns, and which one goes first
alternates from one (workload, seed) to the next, so that a slow spell
of the host falls on both. For each checkout it writes
``BENCH_<short rev>.json`` into ``--out``: the last stdout line of every
run, the per-workload medians and quartiles of the end-to-end metrics,
and the host and library versions. Given exactly two checkouts, a
parent and then a change, it also prints to stderr, for each workload and
end-to-end metric, in how many (workload, seed) pairs the change was
better (by the metric's direction in BENCHMARK.json) and the median ratio
of the change's value to the parent's.

Only files written by one call, as one pair, compare with each other.
The host drifts between sessions: ``BENCH_516856a.json`` and
``BENCH_2992aab.json`` hold the same package code, recorded in two
sessions, and read ``forest-1m`` ``separate_s_p50`` 0.243 and 0.258 s.
To compare a change with an older file, record both checkouts again
together. Example::

    python3 scripts/bench_record.py ../parent . --workload forest-1m:1-10 \\
        --workload core-2k:2-5 --workload many-small:1-4 --out .
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter


def parse_workload(text: str) -> tuple[str, list[int]]:
    """'forest-1m:1-10' or 'many-small:1,5,7' -> (name, seeds)."""
    name, _, seeds = text.partition(":")
    out = []
    for part in (seeds or "1").split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return name, out


def rev_of(checkout: Path) -> str:
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def host() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for lib in ("numpy", "scipy", "networkx"):
        try:
            versions[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            versions[lib] = None
    return {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version(), **versions}


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    print(f"{checkout} {workload} seed {seed} trace {trace}: {wall:.0f} s", file=sys.stderr,
          flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": round(wall, 1),
            "result": result}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric, per workload."""
    out: dict[str, dict] = {}
    for run in runs:
        if run["trace"] == 0:
            for name, m in run["result"]["metrics"].items():
                out.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    for metrics in out.values():
        for name, values in metrics.items():
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"median": statistics.median(values), "q1": q[0], "q3": q[2],
                             "runs": len(values)}
    return out


def compare(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: pairs won by ``change`` and the median ratio.

    Runs at ``--trace 0`` are paired by (workload, seed). ``better`` maps
    each metric to "lower" or "higher"; a tie is not a win. Pairs whose
    parent value is 0 give no ratio.
    """
    base = {(r["workload"], r["seed"]): r["result"]["metrics"]
            for r in parent if r["trace"] == 0}
    seen: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for run in change:
        key = (run["workload"], run["seed"])
        if run["trace"] != 0 or key not in base:
            continue
        for name, m in run["result"]["metrics"].items():
            if name in better and name in base[key]:
                pair = (base[key][name]["value"], m["value"])
                seen.setdefault(run["workload"], {}).setdefault(name, []).append(pair)
    out: dict[str, dict] = {}
    for workload, metrics in seen.items():
        for name, pairs in metrics.items():
            lower = better[name] == "lower"
            wins = sum((b < a) if lower else (b > a) for a, b in pairs)
            ratios = [b / a for a, b in pairs if a != 0]
            out.setdefault(workload, {})[name] = {
                "wins": wins, "pairs": len(pairs),
                "median_ratio": statistics.median(ratios) if ratios else None}
    return out


def format_comparison(table: dict) -> list[str]:
    lines = []
    for workload, metrics in table.items():
        for name, c in metrics.items():
            ratio = "n/a" if c["median_ratio"] is None else f"{c['median_ratio']:.3f}"
            lines.append(f"{workload} {name}: change better in {c['wins']} of {c['pairs']} "
                         f"pairs, median ratio change/parent {ratio}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", type=Path)
    ap.add_argument("--workload", action="append", type=parse_workload, required=True,
                    help="NAME:SEEDS, seeds as 1-10 or 1,5,7; repeatable")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args()

    checkouts = [c.resolve() for c in args.checkouts]
    runs: dict[Path, list[dict]] = {c: [] for c in checkouts}
    turn = 0
    for workload, seeds in args.workload:
        for seed in seeds:
            for c in checkouts[turn:] + checkouts[:turn]:
                runs[c].append(run_once(c, workload, seed, 0))
            turn = (turn + 1) % len(checkouts)
    for workload, seeds in args.workload:
        for c in checkouts:
            runs[c].append(run_once(c, workload, seeds[0], 1))

    machine = host()
    for c in checkouts:
        rev = rev_of(c)
        record = {"rev": rev, "command": "python3 benchmark/run.py", "host": machine,
                  "summary": summary(runs[c]), "runs": runs[c]}
        path = args.out / f"BENCH_{rev}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    if len(checkouts) == 2:
        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                          .read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        table = compare(runs[checkouts[0]], runs[checkouts[1]], better)
        for line in format_comparison(table):
            print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

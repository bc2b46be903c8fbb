"""Benchmark of ``atsep.separate`` on seeded planar near-trees.

Run from the root of a checkout::

    python3 benchmark/run.py --workload core-2k --seed 1 --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones. See README.md in this directory for the workloads and
the metrics.
"""

from __future__ import annotations

import os

# one process, no extra threads: set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from collections import deque  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("forest-1m", "core-2k", "many-small")
# instances whose calls are measured under tracemalloc; on core-2k the grid
# instance, whose traced call takes 15 s against 22 s for the stacked one
MEM_INSTANCES = {"forest-1m": (0,), "core-2k": (1,), "many-small": tuple(range(40))}
CHILD_TIMEOUT_S = 150
# Set-up is timed in the main process and then, while the samples so far
# took less than SETUP_SHARE of --seconds, again in fresh child processes,
# up to SETUP_SAMPLES in all: only the cheap set-up of many-small repeats.
SETUP_SAMPLES = 3
SETUP_SHARE = 0.25
# The reference kernel runs between the timed calls for this share of the
# calls' time; the timing metrics are scaled to a host on which one slice
# of it takes REF_NOMINAL_S (README.md, "Host speed").
REF_SHARE = 0.2
REF_NOMINAL_S = 0.2


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --- inputs -----------------------------------------------------------------


def write_inputs(workload: str, seed: int, into: Path) -> None:
    """Generate the workload and write edge-list texts plus the raw arrays."""
    sys.path.insert(0, str(HERE))
    import numpy as np

    import gen

    insts = gen.instances(workload, seed)
    meta = []
    arrays = {}
    for i, inst in enumerate(insts):
        (into / f"{i:04d}.txt").write_text(inst.text(), encoding="utf-8")
        arrays[f"e{i}"] = inst.edges
        arrays[f"w{i}"] = inst.weights
        meta.append({"name": inst.name, "n": inst.n, "r": inst.r,
                     "beta": [inst.beta.numerator, inst.beta.denominator],
                     "params": inst.params})
    np.savez(into / "arrays.npz", **arrays)
    (into / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def read_texts(into: Path) -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(into.glob("*.txt"))]


def read_meta(into: Path) -> list[dict]:
    return json.loads((into / "meta.json").read_text(encoding="utf-8"))


def load_instances(into: Path):
    """The generated instances, for the checker."""
    sys.path.insert(0, str(HERE))
    import numpy as np

    import gen

    arrays = np.load(into / "arrays.npz")
    return [gen.Instance(m["name"], m["n"], m["r"], arrays[f"e{i}"], arrays[f"w{i}"],
                         Fraction(*m["beta"]), m["params"])
            for i, m in enumerate(read_meta(into))]


def run_child(*args: str) -> str:
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{done.stderr}")
    return done.stdout


# --- set-up -----------------------------------------------------------------


def timed_setup(into: Path):
    """Import atsep, parse every instance, make one warm-up call.

    Returns (seconds, atsep module, graphs, betas, warm-up separator).
    """
    texts = read_texts(into)
    betas = [Fraction(*m["beta"]) for m in read_meta(into)]
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import atsep
    from atsep.fileformat import parse_graph

    graphs = [parse_graph(t) for t in texts]
    warm = atsep.separate(graphs[0], beta=betas[0])
    return perf_counter() - t0, atsep, graphs, betas, frozenset(warm.vertices)


# --- host speed -------------------------------------------------------------


class Reference:
    """A fixed pure-Python graph kernel that does not touch ``atsep``.

    One slice is a BFS over a random graph of 60,000 vertices and a sort of
    the visit order: lists, sets, deques and small ints, like most of
    ``separate``. Its graph does not depend on --seed, so its slices time
    the host, not the program or the inputs.
    """

    def __init__(self, n: int = 60_000):
        rnd = random.Random(20240611)
        adj = [[] for _ in range(n)]
        for v in range(1, n):
            u = rnd.randrange(v)
            adj[u].append(v)
            adj[v].append(u)
        for _ in range(n // 10):
            u, v = rnd.randrange(n), rnd.randrange(n)
            adj[u].append(v)
            adj[v].append(u)
        self.adj = adj
        self.slices: list[float] = []
        self.slice_s = 0.0
        self.call_s = 0.0

    def run_slice(self) -> None:
        adj = self.adj
        t0 = perf_counter()
        seen = {0}
        queue = deque([0])
        order = []
        while queue:
            x = queue.popleft()
            order.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        order.sort(key=lambda z: (len(adj[z]), z))
        self.slices.append(perf_counter() - t0)
        self.slice_s += self.slices[-1]

    def after_call(self, call_s: float) -> None:
        """Run slices until they have taken REF_SHARE of the calls' time so far."""
        self.call_s += call_s
        while self.slice_s < REF_SHARE * self.call_s:
            self.run_slice()

    def speed(self) -> float:
        """Host speed against the reference host: above 1 is faster."""
        return REF_NOMINAL_S / statistics.median(self.slices)


# --- calls and checks -------------------------------------------------------


def settle() -> None:
    """Collect, then freeze what is alive (the loaded graphs).

    The collection before each call then scans only what the previous call
    left behind, instead of every adjacency list of every loaded graph.
    """
    gc.collect()
    gc.freeze()


def one_round(atsep, graphs, betas, tracer=None, ref=None):
    """One call per instance; returns [(seconds, separator or None, error)].

    With ``ref``, reference slices run between the calls.
    """
    out = []
    for i, G in enumerate(graphs):
        if tracer is not None:
            tracer.call = i
        gc.collect()
        t0 = perf_counter()
        try:
            sep = atsep.separate(G, beta=betas[i])
            out.append((perf_counter() - t0, frozenset(sep.vertices), None))
        except Exception as exc:  # a raising call is a failed operation
            out.append((perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"))
        if ref is not None:
            ref.after_call(out[-1][0])
    return out


class Checker:
    """Checks each distinct answer once and that every repeat is identical."""

    def __init__(self, insts):
        import check

        self._check = check.check_separator
        self.insts = insts
        self.outcome: dict[int, object] = {}
        self.verdict: dict[int, str | None] = {}
        self.problems: list[str] = []

    def see(self, i: int, sep, err) -> str | None:
        """Why call on instance i failed, or None; records nondeterminism."""
        key = sep if err is None else ("raised", err.split(":")[0])
        if i not in self.outcome:
            self.outcome[i] = key
            self.verdict[i] = err if err is not None else self._check(self.insts[i], sep)
        elif self.outcome[i] != key:
            self.problems.append(f"{self.insts[i].name}: repeats give different answers")
        return self.verdict[i]

    def failing(self) -> list[str]:
        return [f"{self.insts[i].name}: {why}" for i, why in sorted(self.verdict.items()) if why]


def peak_mem_mb(atsep, G, beta) -> tuple[float, object, str | None]:
    """Peak bytes allocated during one call above what was live before, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        sep = atsep.separate(G, beta=beta)
        result = (frozenset(sep.vertices), None)
    except Exception as exc:
        result = (None, f"{type(exc).__name__}: {exc}")
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 1e6, *result


# --- the two kinds of run ---------------------------------------------------


def end_to_end(workload: str, seconds: float, into: Path) -> dict:
    setup_s, atsep, graphs, betas, warm = timed_setup(into)
    setup = [setup_s]
    while len(setup) < SETUP_SAMPLES and sum(setup) < SETUP_SHARE * seconds:
        setup.append(json.loads(run_child("--setup-from", str(into)).splitlines()[-1])["setup_s"])
    log(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}")

    insts = load_instances(into)
    checker = Checker(insts)
    checker.see(0, warm, None)
    ref = Reference()
    settle()
    calls = []
    deadline = perf_counter() + seconds
    while True:
        calls.extend(one_round(atsep, graphs, betas, ref=ref))
        if perf_counter() >= deadline:
            break
    speed = ref.speed()
    log(f"{len(calls)} calls in {len(calls) // len(graphs)} rounds; "
        f"{len(ref.slices)} reference slices, host speed {speed:.3f}")

    peaks = []
    for i in MEM_INSTANCES[workload]:
        peak, sep, err = peak_mem_mb(atsep, graphs[i], betas[i])
        checker.see(i, sep, err)
        peaks.append(peak)

    failed = 0
    ok_edges = 0
    sizes = []
    for k, (_, sep, err) in enumerate(calls):
        i = k % len(graphs)
        if checker.see(i, sep, err) is not None:
            failed += 1
        else:
            ok_edges += insts[i].m
            sizes.append(len(sep))
    p50_s = statistics.median(dt for dt, _, _ in calls)
    total_s = sum(dt for dt, _, _ in calls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "separate_s_p50": (p50_s * speed, "s"),
        "edges_per_s": (ok_edges / (total_s * speed), "edges/s"),
        "peak_mem_mb": (statistics.fmean(peaks), "MB"),
        "sep_size_mean": (statistics.fmean(sizes) if sizes else 0.0, "vertices"),
    }
    return {"calls": len(calls), "failed": failed, "checker": checker, "metrics": metrics,
            "detail": {"setup_samples_s": setup, "host_speed": speed, "wall_p50_s": p50_s,
                       "wall_edges_per_s": ok_edges / total_s,
                       "reference_slices_s": ref.slices, "peak_mem_samples_mb": peaks,
                       "call_s": [dt for dt, _, _ in calls]}}


def traced(workload: str, into: Path, per_layer: list[dict], seed: int) -> dict:
    sys.path.insert(0, str(HERE))
    from spans import Tracer

    _, atsep, graphs, betas, warm = timed_setup(into)
    del graphs
    texts = read_texts(into)
    insts = load_instances(into)
    checker = Checker(insts)
    checker.see(0, warm, None)

    def one_pass(tracer=None):
        gc.collect()
        t0 = perf_counter()
        graphs = [atsep.fileformat.parse_graph(t) for t in texts]
        parse_s = perf_counter() - t0
        settle()
        calls = one_round(atsep, graphs, betas, tracer)
        return parse_s, calls

    plain_parse, plain = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_parse, spanned = one_pass(tracer)
    finally:
        tracer.uninstall()
    plain_s = plain_parse + sum(dt for dt, _, _ in plain)
    traced_s = traced_parse + sum(dt for dt, _, _ in spanned)
    overhead = traced_s - plain_s
    print(f"trace overhead: {overhead:.3f} s ({100 * overhead / plain_s:.1f}%) on "
          f"{plain_s:.3f} s untraced, parse and one round")

    failed = 0
    for k, (_, sep, err) in enumerate(plain + spanned):
        failed += checker.see(k % len(texts), sep, err) is not None
    for i, inst in enumerate(insts):
        for counts in tracer.counts_of("pipeline.extra_edges", i):
            if counts.get("edges") != inst.r + 1:
                checker.problems.append(
                    f"{inst.name}: extra_edges found {counts.get('edges')} edges, r + 1 = {inst.r + 1}")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans_path)
    log(f"{len(tracer.spans)} spans written to {spans_path}")
    found = tracer.metrics()
    found["trace.overhead_s"] = overhead
    metrics = {m["name"]: (found.get(m["name"], 0), m["unit"]) for m in per_layer}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {"calls": len(plain) + len(spanned), "failed": failed, "checker": checker,
            "metrics": metrics, "detail": {"untraced_s": plain_s, "traced_s": traced_s}}


# --- entry point ------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-into", help=argparse.SUPPRESS)
    ap.add_argument("--setup-from", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.setup_from:
        print(json.dumps({"setup_s": timed_setup(Path(args.setup_from))[0]}))
        return 0
    if args.gen_into:
        write_inputs(args.workload, args.seed, Path(args.gen_into))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "atsep" / "__init__.py").is_file():
        log(f"no atsep sources under {SRC}; run from the root of a checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    OUT.mkdir(exist_ok=True)
    into = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-{args.seed}-", dir=OUT))
    try:
        t0 = perf_counter()
        run_child("--gen-into", str(into), "--workload", args.workload, "--seed", str(args.seed))
        log(f"generated {args.workload} seed {args.seed} in {perf_counter() - t0:.2f} s")
        if args.trace:
            res = traced(args.workload, into, spec["per_layer"], args.seed)
        else:
            res = end_to_end(args.workload, args.seconds, into)
    finally:
        shutil.rmtree(into, ignore_errors=True)

    checker = res["checker"]
    for line in checker.failing():
        log(f"failed: {line}")
    for line in checker.problems:
        log(f"incorrect: {line}")
    result = {
        "correct": not checker.problems,
        "attempted": res["calls"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  failing=checker.failing(), problems=checker.problems, **res["detail"])
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

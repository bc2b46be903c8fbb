"""Pool parity: the pipeline's outcome on every member of the benchmark pool.

``benchmark/gen.py``'s ``small_instance(j)``, j < 900, does not depend on
a seed, so the pool is fixed. Each record holds one member's outcome at
its own beta: the sorted separator, the repairs and the heaviest
component's weight, or the exception's type and message. The pipeline is
deterministic, so a refactor that keeps behaviour keeps every record.
No failure is pinned: every member passes the benchmark's checker at
every beta the pool uses, with at most one repair. Regenerate the file
only for an intended change of behaviour, and explain every record that
changes:

    PYTHONPATH=src python tests/test_pool_golden.py --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

from atsep.errors import AtsepError
from atsep.fileformat import parse_graph
from atsep.pipeline import separate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import gen  # noqa: E402
from check import check_separator  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_pool.json")


def outcome(j: int) -> dict:
    inst = gen.small_instance(j)
    rec = {"member": j, "n": inst.n, "r": inst.r, "beta": str(inst.beta)}
    try:
        sep = separate(parse_graph(inst.text()), beta=inst.beta)
    except AtsepError as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    else:
        rec["separator"] = sorted(sep.vertices)
        rec["repairs"] = sep.repairs
        rec["max_component_weight"] = sep.max_component_weight
    return rec


def render(records) -> str:
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_pool_outcomes_are_pinned():
    records = [outcome(j) for j in range(gen.POOL)]
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(pinned) == len(records) == 900
    changed = [(want, got) for want, got in zip(pinned, records) if want != got]
    assert not changed, f"{len(changed)} members changed, first: {changed[0]}"
    assert render(records) == GOLDEN.read_text(encoding="utf-8")


def test_every_member_passes_at_three_betas():
    # 2,700 runs, each graph parsed once; the checker counts the
    # components itself and checks balance at the run's beta and
    # |S| <= 4 sqrt(r + 1) + 2, and a run takes at most the one repair
    # that switches to the exact lift or adds a tree's centroid
    failures = []
    for j in range(gen.POOL):
        inst = gen.small_instance(j)
        G = parse_graph(inst.text())
        for beta in gen.BETAS:
            sep = separate(G, beta=beta)
            why = check_separator(replace(inst, beta=beta), sep.vertices)
            if why is not None or sep.repairs > 1:
                failures.append((j, str(beta), why, sep.repairs))
    assert not failures, f"{len(failures)} runs fail, first: {failures[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_pool_golden.py --write")
    GOLDEN.write_text(render(outcome(j) for j in range(gen.POOL)), encoding="utf-8")

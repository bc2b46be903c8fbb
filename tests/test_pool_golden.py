"""Pool parity: the pipeline's outcome on every member of the benchmark pool.

``benchmark/gen.py``'s ``small_instance(j)``, j < 900, does not depend on
a seed, so the pool is fixed. Each record holds one member's outcome at
its own beta: the sorted separator, the repairs and the heaviest
component's weight, or the exception's type and message. The pipeline is
deterministic, so a refactor that keeps behaviour keeps every record.
The pool's members that the lifting fault (ROADMAP item 1) breaks are
pinned as they fail: 16 raise ``RepairCapExceeded`` and 8 return a
separator over the size bound. Regenerate the file only for an intended
change of behaviour, and explain every record that changes:

    PYTHONPATH=src python tests/test_pool_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from atsep.errors import AtsepError
from atsep.fileformat import parse_graph
from atsep.pipeline import separate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import gen  # noqa: E402

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_pool_golden.py --write")
    GOLDEN.write_text(render(outcome(j) for j in range(gen.POOL)), encoding="utf-8")

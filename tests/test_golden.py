"""Golden separators: the pipeline's outcome on fixed generator cells.

The pipeline is deterministic (ties break toward the lowest ID), so a
refactor that keeps behaviour keeps every separator exactly. Each cell
records the sorted separator, or the exception class when the call
raises. Regenerate the file only for an intended change of behaviour,
and explain the change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from atsep.errors import AtsepError
from atsep.gen import GenSpec, generate
from atsep.pipeline import separate

GOLDEN = Path(__file__).with_name("golden_separators.json")

MODES = (("unit",), ("uniform", 1, 100), ("single_heavy", Fraction(7, 10)))
BETAS = (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4))
# excess r (-1 for trees) -> vertex counts
SIZES = {
    -1: (200, 2000, 20_000),
    0: (200, 1000, 5000, 20_000),
    4: (200, 1000, 5000, 20_000),
    64: (500, 2000, 20_000),
}


def cells():
    """Three (weight mode, beta) pairs per (r, n); all nine pairs occur."""
    k = 0
    for r, sizes in SIZES.items():
        for n in sizes:
            for j, mode in enumerate(MODES):
                yield {"n": n, "r": r, "seed": 3 * k + j, "mode": mode,
                       "beta": BETAS[(j + k) % 3]}
            k += 1


def outcome(cell) -> dict:
    G = generate(GenSpec(n=cell["n"], r=cell["r"], seed=cell["seed"],
                         weight_mode=cell["mode"]))
    rec = {
        "n": cell["n"],
        "r": cell["r"],
        "seed": cell["seed"],
        "weights": ":".join(str(x) for x in cell["mode"]),
        "beta": str(cell["beta"]),
    }
    try:
        rec["separator"] = sorted(separate(G, beta=cell["beta"]).vertices)
    except AtsepError as exc:
        rec["error"] = type(exc).__name__
    return rec


def render(records) -> str:
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_golden_separators():
    records = [outcome(c) for c in cells()]
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = [
        (want, got) for want, got in zip(pinned, records) if want != got
    ]
    assert len(pinned) == len(records)
    assert not changed, f"{len(changed)} cells changed, first: {changed[0]}"
    assert render(records) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    GOLDEN.write_text(render(outcome(c) for c in cells()), encoding="utf-8")

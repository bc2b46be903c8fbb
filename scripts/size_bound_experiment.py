#!/usr/bin/env python3
"""Separator size versus excess r at fixed n.

Reproduces the size-bound experiment: for each r, run the pipeline on
several seeded instances and compare the separator size against the
contract 4 * sqrt(r + 1) + 2. Writes a CSV to stdout or --out.
"""

import argparse
import csv
import sys
from math import sqrt

from atsep.gen import GenSpec, generate
from atsep.graph import verify_separator
from atsep.pipeline import separate


def run(n: int, r_values, seeds: int, seed_base: int, out) -> int:
    writer = csv.writer(out)
    writer.writerow(["n", "r", "seed", "sep_size", "bound", "max_frac", "repairs", "ok"])
    violations = 0
    for r in r_values:
        bound = 4 * sqrt(r + 1) + 2
        for seed in range(seed_base, seed_base + seeds):
            G = generate(GenSpec(n=n, r=r, seed=seed))
            sep = separate(G)
            ok = sep.size <= bound and verify_separator(G, sep.vertices).passed
            violations += not ok
            writer.writerow(
                [n, r, seed, sep.size, f"{bound:.2f}", f"{sep.max_fraction:.4f}", sep.repairs, int(ok)]
            )
    return violations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--r", type=lambda s: tuple(int(x) for x in s.split(",")),
                        default=(1, 4, 16, 64, 256, 1024))
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        violations = run(args.n, args.r, args.seeds, args.seed_base, out)
    finally:
        if args.out:
            out.close()
    print(f"violations: {violations}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())

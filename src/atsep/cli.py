"""Command-line interface.

Subcommands: gen, separate, verify, oracle, lt. Vertex IDs are
1-based on the wire (matching the edge-list format) and 0-based
internally. Exit codes: 0 success, 1 input or usage error (including a
beta outside (1/2, 1) for separate and lt), 2 internal verification
failure or internal fault (RepairCapExceeded, which signals a bug rather
than bad input).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from time import perf_counter_ns

from .errors import AtsepError, Disconnected, RepairCapExceeded
from .fileformat import format_graph, load_graph, parse_vertex_list, save_graph
from .gen import GenSpec, generate
from .graph import verify_separator
from .oracle import min_balanced_separator
from .pipeline import format_trace, separate
from .planar import lt_separator

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


def _default_seed() -> int:
    return int(os.environ.get("ATS_SEED", "0"))


def _parse_beta(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad beta {text!r}; use a fraction such as 2/3") from None


def _parse_weight_mode(text: str) -> tuple:
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "unit":
            return ("unit",)
        if kind == "uniform":
            return ("uniform", int(parts[1]), int(parts[2]))
        if kind in ("single_heavy", "heavy"):
            return ("single_heavy", Fraction(parts[1]))
    except (IndexError, ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(
        f"bad weight mode {text!r}; use unit, uniform:LO:HI or single_heavy:FRAC"
    )


def cmd_gen(args) -> int:
    spec = GenSpec(n=args.n, r=args.r, seed=args.seed, weight_mode=args.weights)
    G = generate(spec)
    if args.out:
        save_graph(G, args.out)
    else:
        sys.stdout.write(format_graph(G))
    return EXIT_OK


def cmd_separate(args) -> int:
    G = load_graph(args.input)
    t0 = perf_counter_ns()
    if args.trace:
        sep, trace = separate(G, beta=args.beta, trace=True)
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write(format_trace(trace))
    else:
        sep = separate(G, beta=args.beta)
    wall = perf_counter_ns() - t0
    listing = " ".join(str(v + 1) for v in sorted(sep.vertices))
    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    try:
        print(listing, file=out)
        print(f"size {sep.size}", file=out)
        print(f"max_frac {sep.max_fraction:.6f}", file=out)
        print(f"repairs {sep.repairs}", file=out)
    finally:
        if args.out:
            out.close()
    if args.stage_times:
        for name, ns in sep.stage_ns.items():
            print(f"stage_time {name} {ns}", file=sys.stderr)
        print(f"stage_time total {wall}", file=sys.stderr)
    # separate's last component pass already measured the heaviest component
    beta = args.beta
    if sep.max_component_weight * beta.denominator > sep.total_weight * beta.numerator:
        print("verification FAILED (internal error)", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    G = load_graph(args.input)
    if args.separator_file:
        with open(args.separator_file, "r", encoding="utf-8") as f:
            S = parse_vertex_list(f.read(), G.n)
    else:
        S = parse_vertex_list(args.separator or "", G.n)
    report = verify_separator(G, S, args.beta)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} max_frac={report.max_fraction:.4f}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_oracle(args) -> int:
    G = load_graph(args.input)
    result = min_balanced_separator(G, beta=args.beta, max_size=args.max_size)
    if not result.feasible:
        print("infeasible at probed sizes")
        return EXIT_OK
    witness = " ".join(str(v + 1) for v in result.witness)
    print(f"{result.min_size}: {witness}")
    return EXIT_OK


def cmd_lt(args) -> int:
    G = load_graph(args.input)
    lt = lt_separator(G, beta=args.beta)
    print(" ".join(str(v + 1) for v in sorted(lt.vertices)))
    print(f"size {len(lt.vertices)}")
    report = verify_separator(G, lt.vertices, args.beta)
    print(f"max_frac {report.max_fraction:.6f}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atsep",
        description="Balanced vertex separators for planar graphs that are almost trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a connected planar near-tree graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="excess m - n; -1 for a tree")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--weights", type=_parse_weight_mode, default=("unit",))
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("separate", help="compute a balanced separator")
    p.add_argument("input")
    p.add_argument("--beta", type=_parse_beta, default=Fraction(2, 3))
    p.add_argument("--trace", help="write the stage trace to this file")
    p.add_argument("--out")
    p.add_argument("--stage-times", action="store_true",
                   help="print each stage's wall time in ns to stderr")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="check a separator against the balance bound")
    p.add_argument("input")
    p.add_argument("separator", nargs="?", help="whitespace-separated 1-based IDs")
    p.add_argument("--separator-file")
    p.add_argument("--beta", type=_parse_beta, default=Fraction(2, 3))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="minimum balanced separator (small graphs)")
    p.add_argument("input")
    p.add_argument("--beta", type=_parse_beta, default=Fraction(2, 3))
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("lt", help="run the planar separator module standalone")
    p.add_argument("input")
    p.add_argument("--beta", type=_parse_beta, default=Fraction(2, 3))
    p.set_defaults(func=cmd_lt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except RepairCapExceeded as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except Disconnected as exc:
        print(f"error: {exc.message(exc.root + 1)}", file=sys.stderr)  # the file's IDs
        return EXIT_INPUT
    except (AtsepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: solve, verify, gen, bench.

Exit codes: 0 success/feasible, 2 infeasible (or lamps left off), 1 usage
or parse errors (or bench found violations).  JSON output is byte-stable
for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .approx import solve_approx
from .bench import DEFAULT_ORACLE_LIMIT, render_report, run_bench, total_violations
from .exact import NULLSPACE_LIMIT, PRESS_LIMIT, exact_by_nullspace
from .gf2 import BitVec
from .instance_io import (
    ParseError,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_gnp,
    gen_random_tree,
    parse_instance,
    parse_switch_string,
    render_instance,
)
from .lamps import Instance, is_all_on, simulate_presses

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

DEFAULT_EXACT_LIMIT = 16


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # "infeasible" here, so remap usage problems to exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _parse_press(text: str, n: int) -> BitVec:
    """Comma-separated distinct vertex indices; '-' or '' is the empty press set."""
    text = text.strip()
    if text in ("", "-"):
        return BitVec.zeros(n)
    try:
        indices = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"press vector {text!r} is not a comma-separated index list")
    if len(set(indices)) != len(indices):
        raise ValueError(f"press vector {text!r} repeats an index")
    return BitVec.from_indices(n, indices)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.exact_limit > NULLSPACE_LIMIT:
        return _fail(f"--exact-limit {args.exact_limit} exceeds {NULLSPACE_LIMIT}")
    try:
        inst = _load_instance(args.file)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        return _fail(str(exc))
    r, sol = solve_approx(inst)
    if sol is None:
        if args.output == "json":
            print(json.dumps({"feasible": False, "r": r, "m": inst.n - r}, indent=2))
        else:
            print("infeasible")
            print(f"r: {r}")
            print(f"m: {inst.n - r}")
        return EXIT_INFEASIBLE
    if sol.certificate.m <= args.exact_limit:
        # the echelon form spans the same solution set, so its minimum
        # weight is opt
        dec = sol.decomposition
        sol = sol.with_opt(exact_by_nullspace(dec.gamma, dec.basis)[0])
    cert = sol.certificate
    mixed = sol.bound_mixed
    payload: dict = {
        "feasible": True,
        "press": sol.press.indices(),
        "sol": sol.weight,
        "r": cert.r,
        "m": cert.m,
        "g0": cert.g0,
        "g1": cert.g1,
        "boundRank": sol.bound_rank,
        "boundMixedNumerator": mixed.numerator,
        "boundMixedDenominator": mixed.denominator,
    }
    if cert.opt is not None:
        payload["opt"] = cert.opt
    if args.output == "json":
        print(json.dumps(payload, indent=2))
    else:
        press = ",".join(map(str, payload["press"])) or "-"
        print("feasible")
        print(f"press: {press}")
        print(f"sol: {sol.weight}")
        print(f"r: {cert.r} m: {cert.m} g0: {cert.g0} g1: {cert.g1}")
        print(f"bound(rank): {sol.bound_rank}")
        print(f"bound(mixed): {mixed}")
        if cert.opt is not None:
            print(f"opt: {cert.opt} (gap {sol.weight - cert.opt})")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        inst = _load_instance(args.file)
        press = _parse_press(args.press, inst.n)
    except (OSError, ParseError, ValueError) as exc:
        return _fail(str(exc))
    state = simulate_presses(inst, press)
    if is_all_on(state):
        print("ALL ON")
        return EXIT_OK
    off = [str(v) for v in range(inst.n) if not state[v]]
    print("STILL OFF: " + " ".join(off))
    return EXIT_INFEASIBLE


def _cmd_gen(args: argparse.Namespace) -> int:
    families = {
        "path": (1, lambda p: gen_path(int(p[0]))),
        "cycle": (1, lambda p: gen_cycle(int(p[0]))),
        "complete": (1, lambda p: gen_complete(int(p[0]))),
        "grid": (2, lambda p: gen_grid(int(p[0]), int(p[1]))),
        "gnp": (2, lambda p: gen_random_gnp(int(p[0]), float(p[1]), args.seed)),
        "tree": (1, lambda p: gen_random_tree(int(p[0]), args.seed)),
    }
    if args.family not in families:
        return _fail(
            f"unknown family {args.family!r} (choose from {', '.join(families)})"
        )
    arity, build = families[args.family]
    if len(args.params) != arity:
        return _fail(f"family {args.family!r} takes {arity} parameter(s)")
    try:
        inst = build(args.params)
        if args.switches is not None or args.on is not None:
            switches = (
                parse_switch_string(args.switches) if args.switches is not None else None
            )
            on = BitVec.from01(args.on) if args.on is not None else None
            inst = Instance(inst.n, inst.edges, switches, on)
    except ValueError as exc:
        return _fail(str(exc))
    sys.stdout.write(render_instance(inst))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",")]
    except ValueError:
        return _fail(f"--sizes {args.sizes!r} is not a comma-separated integer list")
    if min(sizes) < 1:
        return _fail(f"--sizes {args.sizes!r} lists a size below 1")
    if args.trials < 1:
        return _fail(f"--trials {args.trials} is below 1")
    if args.oracle_limit > PRESS_LIMIT:
        return _fail(f"--oracle-limit {args.oracle_limit} exceeds {PRESS_LIMIT}")
    try:
        workers = max(1, int(os.environ.get("ALLONES_THREADS", "1")))
    except ValueError:
        workers = 1
    report = run_bench(
        sizes,
        args.trials,
        args.seed,
        oracle_limit=args.oracle_limit,
        workers=workers,
    )
    if args.output == "json":
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(render_report(report))
    return EXIT_OK if total_violations(report) == 0 else EXIT_USAGE


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="allones",
        description="Feasibility and small press sets for lamp-lighting instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument(
        "--exact-limit",
        type=int,
        default=DEFAULT_EXACT_LIMIT,
        metavar="M",
        help="also report the exact optimum when the system corank is at most M"
        f" (default {DEFAULT_EXACT_LIMIT}, at most {NULLSPACE_LIMIT})",
    )
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="simulate a press set against an instance file")
    p.add_argument("file")
    p.add_argument("press", help="comma-separated vertex indices ('-' for none)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit an instance file on stdout")
    p.add_argument("family", help="path | cycle | complete | grid | gnp | tree")
    p.add_argument("params", nargs="*", help="family parameters (e.g. grid W H)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--switches", metavar="STR", help="override switch string (+/-)")
    p.add_argument("--on", metavar="STR", help="override initial lamp states (0/1)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run the random corpus with invariant checks")
    p.add_argument("--sizes", default="8,10,12", help="comma-separated vertex counts")
    p.add_argument("--trials", type=int, default=100, help="instances per size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=DEFAULT_ORACLE_LIMIT,
        metavar="N",
        help="compare against the exact oracles when n is at most N"
        f" (default {DEFAULT_ORACLE_LIMIT}, at most {PRESS_LIMIT})",
    )
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: solve, verify, gen, bench.

Exit codes: 0 success/feasible, 2 infeasible (or lamps left off), 1 usage
or parse errors (or bench found violations), and 1 with nothing on stderr
when stdout is closed before the output is written.  JSON output is
byte-stable for identical inputs and flags.

Each call builds only the invoked command's parser, from one builder per
subcommand in ``_COMMANDS``; the top-level help and an unknown command
get all of them.  Nothing is cached between calls.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .approx import solve_approx
from .exact import NULLSPACE_LIMIT, PRESS_LIMIT, exact_by_nullspace
from .gf2 import BitVec
from .instance_io import (
    VERTEX_LIMIT,
    ParseError,
    _clip,
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
from .lamps import Instance, simulate_presses

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

DEFAULT_EXACT_LIMIT = 16
DEFAULT_ORACLE_LIMIT = 12

# most vertices plus edges `gen` builds (for gnp, vertex pairs drawn);
# at the limit, generating and rendering allocate about 190 MiB
GEN_LIMIT = 1_000_000


class _Parser(argparse.ArgumentParser):
    # argparse prints the usage and exits with status 2 on usage errors; 2
    # is reserved for "infeasible" here, so report them like every other
    # bad input: one error line, exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        sys.exit(_fail(f"{self.prog}: {message}"))


def _fail(message: str) -> int:
    # a message can echo a long argument (argparse's do); callers clip
    # what they quote, so the reason at the end survives, and this cut
    # keeps the rest to one short line
    print(f"error: {_clip(message, 160)}", file=sys.stderr)
    return EXIT_USAGE


def _out_of_range(flag: str, value: int, low: int, high: int | None = None) -> str:
    """The error for an integer flag outside [low, high], or ''.  The value
    is clipped, so the reason at the end survives _fail's cut."""
    shown = f"{flag} {_clip(str(value), 20)}"
    if high is not None and value > high:
        return f"{shown} exceeds {high}"
    return f"{shown} is below {low}" if value < low else ""


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
        raise ValueError(f"press vector {_clip(text)!r} is not a comma-separated index list")
    if len(set(indices)) != len(indices):
        raise ValueError(f"press vector {_clip(text)!r} repeats an index")
    for i in indices:
        if not 0 <= i < n:
            # clipped, so the reason at the end survives _fail's cut
            raise ValueError(f"index {_clip(str(i), 20)} out of range for length {n}")
    # the indices are distinct, so the sum sets each bit once
    return BitVec(n, sum(1 << i for i in indices))


def _json_text(payload: dict) -> str:
    """The text json.dumps(payload, indent=2) gives for solve's payloads,
    whose keys need no escapes and whose values are bools, ints and lists
    of ints; solve writes it itself, so it never loads json."""

    def value(v: bool | int | list[int]) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, list):
            return "[\n    " + ",\n    ".join(map(str, v)) + "\n  ]" if v else "[]"
        return str(v)

    return "{\n" + ",\n".join(f'  "{k}": {value(v)}' for k, v in payload.items()) + "\n}"


def _cmd_solve(args: argparse.Namespace) -> int:
    if bad := _out_of_range("--exact-limit", args.exact_limit, 0, NULLSPACE_LIMIT):
        return _fail(bad)
    try:
        inst = _load_instance(args.file)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        return _fail(str(exc))
    r, sol = solve_approx(inst)
    if sol is None:
        if args.output == "json":
            print(_json_text({"feasible": False, "r": r, "m": inst.n - r}))
        else:
            print("infeasible")
            print(f"r: {r}")
            print(f"m: {inst.n - r}")
        return EXIT_INFEASIBLE
    dec = sol.decomposition
    if dec.m <= args.exact_limit:
        # the echelon form spans the same solution set, so its minimum
        # weight is opt
        sol = sol.with_opt(exact_by_nullspace(dec.gamma, dec.basis)[0])
    t = dec.bound_mixed_x2  # (n + g1 - g0)/2 in lowest terms is num/den
    num, den = (t, 2) if t % 2 else (t // 2, 1)
    press = sol.press.indices()
    payload: dict = {
        "feasible": True,
        "press": press,
        "sol": sol.weight,
        "r": dec.r,
        "m": dec.m,
        "g0": dec.g0,
        "g1": dec.g1,
        "boundRank": dec.r,
        "boundMixedNumerator": num,
        "boundMixedDenominator": den,
    }
    if sol.opt is not None:
        payload["opt"] = sol.opt
    if args.output == "json":
        print(_json_text(payload))
    else:
        print("feasible")
        print("press: " + (",".join(map(str, press)) or "-"))
        print(f"sol: {sol.weight}")
        print(f"r: {dec.r} m: {dec.m} g0: {dec.g0} g1: {dec.g1}")
        print(f"bound(rank): {dec.r}")
        print(f"bound(mixed): {num}/{den}" if den > 1 else f"bound(mixed): {num}")
        if sol.opt is not None:
            print(f"opt: {sol.opt} (gap {sol.weight - sol.opt})")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        inst = _load_instance(args.file)
        press = _parse_press(args.press, inst.n)
    except (OSError, ParseError, ValueError) as exc:
        return _fail(str(exc))
    state = simulate_presses(inst, press)
    off = BitVec(inst.n, ~state.bits & ((1 << inst.n) - 1)).indices()
    if not off:
        print("ALL ON")
        return EXIT_OK
    print("STILL OFF: " + " ".join(map(str, off)))
    return EXIT_INFEASIBLE


def _cmd_gen(args: argparse.Namespace) -> int:
    # per family: parameter types, vertices plus edges, generator
    families = {
        "path": ((int,), lambda n: 2 * n - 1, gen_path),
        "cycle": ((int,), lambda n: 2 * n if n > 2 else 2 * n - 1, gen_cycle),
        "complete": ((int,), lambda n: n + n * (n - 1) // 2, gen_complete),
        "grid": ((int, int), lambda w, h: 3 * w * h - w - h, gen_grid),
        "gnp": (
            (int, float),
            # one draw per vertex pair, whatever p is
            lambda n, p: n + n * (n - 1) // 2,
            lambda n, p: gen_random_gnp(n, p, args.seed),
        ),
        "tree": ((int,), lambda n: 2 * n - 1, lambda n: gen_random_tree(n, args.seed)),
    }
    if args.family not in families:
        return _fail(
            f"unknown family {_clip(args.family)!r} (choose from {', '.join(families)})"
        )
    types, size, build = families[args.family]
    if len(args.params) != len(types):
        return _fail(f"family {args.family!r} takes {len(types)} parameter(s)")
    try:
        params = [t(p) for t, p in zip(types, args.params)]
        if size(*params) > GEN_LIMIT:
            return _fail(
                f"{args.family} {_clip(' '.join(args.params))} has more than"
                f" {GEN_LIMIT} vertices plus edges"
            )
        inst = build(*params)
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
        return _fail(f"--sizes {_clip(args.sizes)!r} is not a comma-separated integer list")
    if min(sizes) < 1:
        return _fail(f"--sizes {_clip(args.sizes)!r} lists a size below 1")
    if bad := _out_of_range("--trials", args.trials, 1):
        return _fail(bad)
    # G(n, p) draws once per vertex pair, as gen gnp does, and the solve
    # holds n-bit masks: each instance costs about n squared, and every
    # size is drawn --trials times
    if args.trials * sum(n + n * (n - 1) // 2 for n in sizes) > GEN_LIMIT:
        return _fail(
            f"--sizes {_clip(args.sizes)!r} with --trials {_clip(str(args.trials), 20)}"
            f" has more than {GEN_LIMIT} vertices plus vertex pairs"
        )
    if bad := _out_of_range("--oracle-limit", args.oracle_limit, 0, PRESS_LIMIT):
        return _fail(bad)
    # only bench loads the corpus checker and json, so solve's start pays
    # for neither
    from . import bench

    report = bench.run_bench(sizes, args.trials, args.seed, oracle_limit=args.oracle_limit)
    if args.output == "json":
        import json

        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(bench.render_report(report))
    return EXIT_USAGE if any(report["results"]["violations"].values()) else EXIT_OK


def _add_solve(sub: argparse._SubParsersAction) -> None:
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


def _add_verify(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("verify", help="simulate a press set against an instance file")
    p.add_argument("file")
    p.add_argument("press", help="comma-separated vertex indices ('-' for none)")
    p.set_defaults(func=_cmd_verify)


def _add_gen(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "gen",
        help="emit an instance file on stdout",
        description=f"Emit an instance file on stdout, up to {GEN_LIMIT:,} vertices plus"
        f" edges. solve and verify read at most {VERTEX_LIMIT:,} vertices, so"
        " larger instances are for the Python API or other tools.",
    )
    p.add_argument("family", help="path | cycle | complete | grid | gnp | tree")
    p.add_argument("params", nargs="*", help="family parameters (e.g. grid W H)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--switches", metavar="STR", help="override switch string (+/-)")
    p.add_argument("--on", metavar="STR", help="override initial lamp states (0/1)")
    p.set_defaults(func=_cmd_gen)


def _add_bench(sub: argparse._SubParsersAction) -> None:
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


# each subcommand's parser builder, in the order the top-level help lists them
_COMMANDS = {"solve": _add_solve, "verify": _add_verify, "gen": _add_gen, "bench": _add_bench}


def _build_parser(command: str | None = None) -> _Parser:
    """The CLI's parser with every subcommand, or with only ``command``'s.

    A subcommand's parser neither reads nor changes its siblings, so with
    ``command`` first in argv both parse it alike; the full parser is
    needed only where the siblings show: the top-level help and the
    invalid-choice error, which lists them."""
    parser = _Parser(
        prog="allones",
        description="Feasibility and small press sets for lamp-lighting instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in _COMMANDS.values() if command is None else (_COMMANDS[command],):
        add(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no argument, -h, an unknown or an abbreviated command: the full parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        status = args.func(args)
        # a closed stdout shows here at the latest, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so the flush at exit
        # fails no more, and exit 1 without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    return status


if __name__ == "__main__":
    sys.exit(main())

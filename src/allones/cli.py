"""Command-line surface: the shared plumbing and the solve and verify commands.

Exit codes: 0 success/feasible, 2 infeasible (or lamps left off), 1 usage
or parse errors (or bench found violations), and 1 with nothing on stderr
when stdout is closed before the output is written.  JSON output is
byte-stable for identical inputs and flags.

When argv names a command, that command's builder in ``_COMMANDS``
builds it as a standalone parser, which parses the rest of argv; the
full parser, with every command, is built only for no argument, a
top-level -h, an unknown or abbreviated command, and to report
arguments the command's parser left over.  The gen and bench
commands live in ``generators`` and ``bench``, loaded only when their
parser is built, so a solve or verify compiles neither.  Nothing is
cached between calls.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from importlib import import_module

from .approx import solve_approx
from .exact import NULLSPACE_LIMIT, exact_by_nullspace
from .gf2 import BitVec
from .instance_io import ParseError, _int, parse_instance
from .lamps import Instance, _clip, simulate_presses

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

DEFAULT_EXACT_LIMIT = 16


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
    shown = f"{flag} {_clip(value, 20)}"
    if high is not None and value > high:
        return f"{shown} exceeds {high}"
    return f"{shown} is below {low}" if value < low else ""


def _load_instance(path: str) -> Instance:
    # parse_instance reads the bytes as text mode would, decoding them only
    # for the line parser
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def _parse_press(text: str, n: int) -> BitVec:
    """Comma-separated distinct vertex indices; '-' or '' is the empty press set."""
    text = text.strip()
    if text in ("", "-"):
        return BitVec.zeros(n)
    try:
        indices = [_int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"press vector {_clip(text)!r} is not a comma-separated index list")
    for i in indices:
        if not 0 <= i < n:
            # clipped, so the reason at the end survives _fail's cut
            raise ValueError(f"index {_clip(i, 20)} out of range for length {n}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"press vector {_clip(text)!r} repeats an index")
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


def _add_solve(sub: argparse._SubParsersAction | _Standalone) -> None:
    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument(
        "--exact-limit",
        type=_int,
        default=DEFAULT_EXACT_LIMIT,
        metavar="M",
        help="also report the exact optimum when the system corank is at most M"
        f" (default {DEFAULT_EXACT_LIMIT}, at most {NULLSPACE_LIMIT})",
    )
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_solve)


def _add_verify(sub: argparse._SubParsersAction | _Standalone) -> None:
    p = sub.add_parser("verify", help="simulate a press set against an instance file")
    p.add_argument("file")
    p.add_argument("press", help="comma-separated vertex indices ('-' for none)")
    p.set_defaults(func=_cmd_verify)


# each subcommand's parser builder, in the order the top-level help lists
# them; gen's and bench's load their module only when their parser is built
_COMMANDS = {
    "solve": _add_solve,
    "verify": _add_verify,
    "gen": lambda sub: import_module(".generators", __package__)._add_gen(sub),
    "bench": lambda sub: import_module(".bench", __package__)._add_bench(sub),
}


class _Standalone:
    """Stands in for the subparsers action a builder in ``_COMMANDS`` adds
    its command to: the parser it adds is whole, and named as the full
    parser names the command's."""

    def add_parser(self, name: str, help: str | None = None, **kw) -> _Parser:
        self.parser = _Parser(prog="allones " + name, **kw)
        return self.parser


def _build_parser() -> _Parser:
    """The CLI's parser with every subcommand.  ``main`` needs it only where
    the siblings show, in the top-level help and the invalid-choice error,
    which lists them, and for the top-level prog on leftover arguments."""
    parser = _Parser(
        prog="allones",
        description="Feasibility and small press sets for lamp-lighting instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in _COMMANDS.values():
        add(sub)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``_build_parser().parse_args(argv)`` gives, help, errors and exit
    codes included, building that parser only where it is needed.

    A subcommand's parser neither reads nor changes its siblings, and the
    full parser hands it all of argv after the command name, so the
    command's standalone parser parses that alike.  Leftover arguments
    are reported by the full parser, which names them under its prog."""
    if not argv or argv[0] not in _COMMANDS:
        # no argument, -h, an unknown or an abbreviated command
        return _build_parser().parse_args(argv)
    standalone = _Standalone()
    _COMMANDS[argv[0]](standalone)
    args, extra = standalone.parser.parse_known_args(argv[1:])
    # leftovers: the full parser reports them and exits
    return _build_parser().parse_args(argv) if extra else args


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command argv names (``sys.argv[1:]`` by default) and return
    its exit code; usage errors exit through ``SystemExit``."""
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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

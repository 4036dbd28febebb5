"""Graph generators, the splitmix64 PRNG they draw from, and the `gen` command.

``gen_random_mixed`` writes its header strings straight from its random
bits.  `gen` takes a --seed from 0 to 2**64 - 1, the PRNG's state, and
checks --switches and --on as the line parser checks the header strings,
then puts them on the instance it generated.  Only `allones gen` and the
generator names of `allones` load this module, and it loads the CLI only
when the command runs.
"""

from __future__ import annotations

import sys

from .instance_io import VERTEX_LIMIT, _header_bytes, _int, render_instance
from .lamps import Instance, _clip

_MASK64 = (1 << 64) - 1

# most vertices plus edges `gen` builds (for gnp, vertex pairs drawn);
# at the limit, generating and rendering allocate about 190 MiB
GEN_LIMIT = 1_000_000


class SplitMix64:
    """splitmix64 PRNG, reimplemented from its reference constants.

    Deterministic and trivially portable, so generated fixtures can be
    reproduced anywhere from the seed alone.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def bits(self, n: int) -> int:
        """n random bits packed into an int, 64 per draw, low bits first."""
        if n < 0:
            raise ValueError(f"bit count {n} is negative")
        out = 0
        filled = 0
        while filled < n:
            out |= self.next_u64() << filled
            filled += 64
        return out & ((1 << n) - 1)


def gen_path(n: int) -> Instance:
    """Path 0-1-...-(n-1); like every generator but gen_random_mixed, it has
    all '+' switches and all lamps off."""
    return Instance(n, [(v, v + 1) for v in range(n - 1)])


def gen_cycle(n: int) -> Instance:
    """Cycle on n vertices (degenerates to a path for n <= 2)."""
    edges = [(v, v + 1) for v in range(n - 1)]
    if n > 2:
        edges.append((0, n - 1))
    return Instance(n, edges)


def gen_complete(n: int) -> Instance:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Instance(n, edges)


def gen_grid(w: int, h: int) -> Instance:
    """w x h grid with 4-neighborhood, vertices numbered row-major."""
    if w < 1 or h < 1:
        raise ValueError("grid sides must be >= 1")
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    return Instance(w * h, edges)


def _gnp_edges(n: int, p: float, rng: SplitMix64) -> list[tuple[int, int]]:
    """One Bernoulli draw from rng per pair (i, j), i < j, in sorted order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    threshold = int(p * 2.0**64)
    draw = rng.next_u64
    return [(i, j) for i in range(n) for j in range(i + 1, n) if draw() < threshold]


def gen_random_gnp(n: int, p: float, seed: int) -> Instance:
    """G(n, p): one Bernoulli draw per pair (i, j), i < j, in sorted order."""
    return Instance(n, _gnp_edges(n, p, SplitMix64(seed)))


def gen_random_tree(n: int, seed: int) -> Instance:
    """Random recursive tree: vertex v >= 1 attaches to a uniform earlier vertex."""
    rng = SplitMix64(seed)
    edges = [(rng.below(v), v) for v in range(1, n)]
    return Instance(n, edges)


def gen_random_mixed(n: int, p: float, seed: int) -> Instance:
    """G(n, p) with random switch types and random initial lamp states.

    Draw order: edges as in gen_random_gnp, then n switch bits (set bit =
    '-' switch), then n state bits.
    """
    rng = SplitMix64(seed)
    edges = _gnp_edges(n, p, rng)
    # each draw's n bits as a header string, vertex 0's bit first
    kinds = format(rng.bits(n), f"0{n}b")[::-1].encode().translate(bytes.maketrans(b"01", b"+-"))
    lamps = format(rng.bits(n), f"0{n}b")[::-1].encode()
    return Instance.__new__(Instance)._init(n, edges, kinds, lamps)


# per family: parameter names, vertices plus edges, and a builder taking the
# parameters and --seed, which looks its generator up when it is called; P
# is a probability, every other parameter a count
_FAMILIES = {
    "path": ("N", lambda n: 2 * n - 1, lambda n, seed: gen_path(n)),
    "cycle": ("N", lambda n: 2 * n if n > 2 else 2 * n - 1, lambda n, seed: gen_cycle(n)),
    "complete": ("N", lambda n: n + n * (n - 1) // 2, lambda n, seed: gen_complete(n)),
    "grid": ("WH", lambda w, h: 3 * w * h - w - h, lambda w, h, seed: gen_grid(w, h)),
    "gnp": (
        "NP",
        # one draw per vertex pair, whatever p is
        lambda n, p: n + n * (n - 1) // 2,
        lambda n, p, seed: gen_random_gnp(n, p, seed),
    ),
    "tree": ("N", lambda n: 2 * n - 1, lambda n, seed: gen_random_tree(n, seed)),
}


def _cmd_gen(args) -> int:
    from .cli import EXIT_OK, _fail, _out_of_range

    # SplitMix64 would take the seed mod 2**64, so two seeds would alias
    if bad := _out_of_range("--seed", args.seed, 0, _MASK64):
        return _fail(bad)
    if args.family not in _FAMILIES:
        return _fail(
            f"unknown family {_clip(args.family)!r} (choose from {', '.join(_FAMILIES)})"
        )
    names, size, build = _FAMILIES[args.family]
    if len(args.params) != len(names):
        return _fail(f"family {args.family!r} takes {len(names)} parameter(s)")
    params = []
    for name, text in zip(names, args.params):
        try:
            params.append(float(text) if name == "P" else _int(text))
        except ValueError:
            kind = "a number" if name == "P" else "an integer"
            return _fail(f"{args.family} {name} {_clip(text)!r} is not {kind}")
    try:
        # the sizes are quadratic in the counts, so a count below 1 skips
        # them and meets its generator's own check, which builds nothing
        counts = [v for name, v in zip(names, params) if name != "P"]
        if min(counts) >= 1 and size(*params) > GEN_LIMIT:
            return _fail(
                f"{args.family} {_clip(' '.join(args.params))} has more than"
                f" {GEN_LIMIT} vertices plus edges"
            )
        inst = build(*params, args.seed)
        # checked as the line parser checks the header, and put on the
        # instance just built, whose rows nothing has packed
        if args.switches is not None:
            inst._kinds = _header_bytes(args.switches, inst.n, "switch", "--switches: ")
        if args.on is not None:
            inst._lamps = _header_bytes(args.on, inst.n, "state", "--on: ")
    except ValueError as exc:
        return _fail(str(exc))
    sys.stdout.write(render_instance(inst))
    return EXIT_OK


def _add_gen(sub) -> None:
    p = sub.add_parser(
        "gen",
        help="emit an instance file on stdout",
        description=f"Emit an instance file on stdout, up to {GEN_LIMIT:,} vertices plus"
        f" edges. solve and verify read at most {VERTEX_LIMIT:,} vertices, so"
        " larger instances are for the Python API or other tools.",
    )
    p.add_argument("family", help=" | ".join(_FAMILIES))
    p.add_argument("params", nargs="*", help="family parameters (e.g. grid W H)")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--switches", metavar="STR", help="override switch string (+/-)")
    p.add_argument("--on", metavar="STR", help="override initial lamp states (0/1)")
    p.set_defaults(func=_cmd_gen)

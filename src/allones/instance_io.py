"""Instance text format and the graph generator suite.

File format (line oriented, '#' starts a comment line):

    allones <n>
    switches <n chars, '+' = toggles self+neighbors, '-' = neighbors only>
    on <n chars, '0'/'1', bit i = lamp i initially on>
    e <i> <j>        (one line per edge, 0-based endpoints)

Rendering always emits the three header lines followed by the edges in
canonical sorted order, so parse(render(x)) == x.
"""

from __future__ import annotations

from typing import Iterator

from .gf2 import BitVec
from .lamps import EdgeError, Instance, SwitchType

_MASK64 = (1 << 64) - 1


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


class ParseError(ValueError):
    """Instance text that does not follow the format; carries the line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_switch_string(text: str) -> tuple[SwitchType, ...]:
    """'+'/'-' characters to switch types; raises ValueError on others."""
    out = []
    for ch in text:
        if ch == "+":
            out.append(SwitchType.SIGMA_PLUS)
        elif ch == "-":
            out.append(SwitchType.SIGMA)
        else:
            raise ValueError(f"switch character {ch!r} is not '+' or '-'")
    return tuple(out)


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_instance(text: str) -> Instance:
    """Parse the text format; raises ParseError with a line number."""
    lines = _significant_lines(text)

    def next_line(expected: str) -> tuple[int, list[str]]:
        try:
            lineno, line = next(lines)
        except StopIteration:
            end = len(text.splitlines()) + 1
            raise ParseError(end, f"unexpected end of input, expected {expected}") from None
        return lineno, line.split()

    lineno, fields = next_line("the 'allones <n>' header")
    if len(fields) != 2 or fields[0] != "allones":
        raise ParseError(lineno, "expected header 'allones <n>'")
    try:
        n = int(fields[1])
    except ValueError:
        raise ParseError(lineno, f"vertex count {fields[1]!r} is not an integer") from None
    if n < 1:
        raise ParseError(lineno, f"vertex count must be >= 1, got {n}")

    lineno, fields = next_line("the 'switches' line")
    if len(fields) != 2 or fields[0] != "switches":
        raise ParseError(lineno, "expected 'switches <string of +/->'")
    if len(fields[1]) != n:
        raise ParseError(
            lineno, f"switch string has length {len(fields[1])}, expected {n}"
        )
    try:
        switches = parse_switch_string(fields[1])
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None

    lineno, fields = next_line("the 'on' line")
    if len(fields) != 2 or fields[0] != "on":
        raise ParseError(lineno, "expected 'on <string of 0/1>'")
    if len(fields[1]) != n:
        raise ParseError(
            lineno, f"state string has length {len(fields[1])}, expected {n}"
        )
    if any(ch not in "01" for ch in fields[1]):
        raise ParseError(lineno, "state string may contain only '0' and '1'")
    initially_on = BitVec.from01(fields[1])

    # Instance validates the edges as it consumes them, so the first bad
    # edge it reports is also the first bad line in file order
    edge_lines: list[int] = []

    def edges() -> Iterator[tuple[int, int]]:
        for lineno, line in lines:
            fields = line.split()
            if fields[0] != "e" or len(fields) != 3:
                raise ParseError(lineno, f"expected 'e <i> <j>', got {line!r}")
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(lineno, f"edge endpoints in {line!r} are not integers") from None
            edge_lines.append(lineno)
            yield i, j

    try:
        return Instance(n, edges(), switches, initially_on)
    except EdgeError as exc:
        raise ParseError(edge_lines[exc.index], str(exc)) from None


def render_instance(inst: Instance) -> str:
    """Canonical text for an instance (inverse of parse_instance)."""
    out = [
        f"allones {inst.n}",
        "switches " + "".join(s.value for s in inst.switches),
        "on " + inst.initially_on.to01(),
    ]
    out.extend(f"e {i} {j}" for i, j in inst.edges)
    return "\n".join(out) + "\n"


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
    sw_bits = rng.bits(n)
    switches = tuple(
        SwitchType.SIGMA if (sw_bits >> v) & 1 else SwitchType.SIGMA_PLUS
        for v in range(n)
    )
    initially_on = BitVec(n, rng.bits(n))
    return Instance(n, edges, switches, initially_on)

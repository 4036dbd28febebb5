"""Instance text format: parse and render (the generators are in
allones.generators).

File format (line oriented, '#' starts a comment line):

    allones <n>
    switches <n chars, '+' = toggles self+neighbors, '-' = neighbors only>
    on <n chars, '0'/'1', bit i = lamp i initially on>
    e <i> <j>        (one line per edge, 0-based endpoints)

Rendering always emits the three header lines followed by the edges in
canonical sorted order, so parse(render(x)) == x.

Text in the layout rendering writes takes a bulk path, with the edges in
any order and either endpoint first: the three header lines with single
spaces, then only lines that are exactly 'e <i> <j>', endpoints in ASCII
digits without leading zeros, and every line ending in '\n'.  A regular
expression admits the header; no regular expression reads the edge
lines.  They are encoded as ASCII slab by slab; a slab is admitted when,
with its digits deleted, it reads 'e  \n' once per line and its tokens
are three per line with 'e' first.  A table of decimal tokens, kept for
the process and grown to the largest n parsed so far, turns the endpoint
tokens into vertex numbers and turns away a leading zero.
The bulk path makes no edge tuples and sorts nothing: it builds each
vertex's row of the linear system directly, in the bit-mirrored layout
the elimination reads.  On sparse text it ORs each edge into both of its
rows; on dense text (see ``lamps.Instance._from_endpoints`` for the
rule) it ORs each edge into one row and mirrors the rows across their
anti-diagonal in one bit-matrix transpose.  Either row build turns away
an endpoint >= n, and one popcount over the rows turns away self-loops
and repeated edges.
The Instance derives its sorted edges from the rows only when they are
read.
Any other text, and any text the bulk path finds a fault in, goes to the
line-by-line parser.  So every other valid layout (comments, blank lines,
CRLF, tabs, extra spaces, a missing final newline) parses to the same
Instance, and only the line parser raises ParseError, naming the first bad
line in file order.  Both paths refuse a vertex count above VERTEX_LIMIT
before building anything n-sized.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .gf2 import BitVec
from .lamps import EdgeError, Instance, SwitchType


class ParseError(ValueError):
    """Instance text that does not follow the format; carries the line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _clip(text: str, width: int = 40) -> str:
    """Input text to echo in a message, cut to width characters and '...'."""
    return text if len(text) <= width else text[:width] + "..."


_SWITCH_OF = {s.value: s for s in SwitchType}

# most vertices an instance read from text may have: each vertex gets an
# n-bit row, so memory grows as n squared whatever the edge count;
# `allones solve` of a path, tree or grid this size peaks at 134-180 MiB RSS
VERTEX_LIMIT = 30_000

# The header render_instance writes: n, the switch string and the state
# string are groups 1-3.  The edge lines after it, in any order, are each
# exactly 'e <i> <j>'; _edge_endpoints checks them without a regex
_HEADER = re.compile(r"allones ([1-9][0-9]*)\nswitches ([+-]+)\non ([01]+)\n")

# characters of edge lines checked and split at a time; a split keeps a
# token for every number, so only one slab's worth of them is alive at once
_SLAB = 1 << 14

# an edge line 'e <i> <j>\n' with its digits deleted
_EDGE_LAYOUT = b"e  \n"
_DIGITS = b"0123456789"

# vertex number v's ASCII decimal token to v, for every v below the largest
# vertex count parsed so far in this process; a lookup converts a token in
# about half the time int() takes and has no key for a leading zero.  It
# holds at most VERTEX_LIMIT entries, as _parse_canonical checks n first,
# and an entry never changes, so two parses growing it at once only write
# equal entries
_VERTEX_OF: dict[bytes, int] = {}


def parse_switch_string(text: str) -> tuple[SwitchType, ...]:
    """'+'/'-' characters to switch types; raises ValueError on others."""
    # strip leaves the first character that is not '+' or '-' in front
    bad = text.strip("+-")
    if bad:
        raise ValueError(f"switch character {bad[0]!r} is not '+' or '-'")
    return tuple(map(_SWITCH_OF.__getitem__, text))


def _edge_endpoints(text: str, start: int, n: int) -> tuple[list[int], list[int]] | None:
    """Both endpoint columns of the edge lines from start on, or None if
    some line there is not exactly 'e <i> <j>'.  An endpoint may be >= n
    when a larger instance was parsed before; the row build turns it away."""
    left: list[int] = []
    right: list[int] = []
    known = len(_VERTEX_OF)
    if known < n:
        _VERTEX_OF.update({b"%d" % v: v for v in range(known, n)})
    vertex = _VERTEX_OF.__getitem__
    end = len(text)
    try:
        while start < end:
            # a slab ends at a newline, or at the end of the text
            stop = text.find("\n", start + _SLAB) + 1 or end
            slab = text[start:stop].encode("ascii")
            tokens = slab.split()
            lines = len(tokens) // 3
            # with its digits deleted each line must read 'e  \n', which
            # leaves it at most three tokens; lines = len(tokens) // 3 then
            # makes it exactly three, so no number is empty.  The first
            # token may still carry digits ('e0 0 1', '0e 0 1'): it must be 'e'
            if (
                slab.translate(None, _DIGITS) != _EDGE_LAYOUT * lines
                or tokens[::3].count(b"e") != lines
            ):
                return None
            left += map(vertex, tokens[1::3])
            right += map(vertex, tokens[2::3])
            start = stop
    except (KeyError, UnicodeEncodeError):
        return None
    return left, right


def _parse_canonical(text: str) -> Instance | None:
    """The bulk path: the instance for canonical-layout text, or None."""
    header = _HEADER.match(text)
    if header is None:
        return None
    # the regex admits no leading zero, so the count reads exactly str(n)
    n = len(header[2])
    if n > VERTEX_LIMIT or header[1] != str(n) or len(header[3]) != n:
        return None
    endpoints = _edge_endpoints(text, header.end(), n)
    if endpoints is None:
        return None
    switches = parse_switch_string(header[2])
    return Instance._from_endpoints(n, *endpoints, switches, BitVec.from01(header[3]))


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_instance(text: str) -> Instance:
    """Parse the text format; raises ParseError with a line number."""
    inst = _parse_canonical(text)
    if inst is None:
        inst = _parse_lines(text)
    return inst


def _parse_lines(text: str) -> Instance:
    """The line-by-line parser: any valid layout, and every ParseError."""
    lines = _significant_lines(text)

    def next_line(expected: str) -> tuple[int, list[str]]:
        try:
            lineno, line = next(lines)
        except StopIteration:
            end = len(text.splitlines()) + 1
            raise ParseError(end, f"unexpected end of input, expected {expected}") from None
        return lineno, line.split()

    header_line, fields = next_line("the 'allones <n>' header")
    if len(fields) != 2 or fields[0] != "allones":
        raise ParseError(header_line, "expected header 'allones <n>'")
    try:
        n = int(fields[1])
    except ValueError:
        raise ParseError(header_line, f"vertex count {_clip(fields[1])!r} is not an integer") from None
    if n < 1:
        raise ParseError(header_line, f"vertex count must be >= 1, got {_clip(str(n))}")

    lineno, fields = next_line("the 'switches' line")
    if len(fields) != 2 or fields[0] != "switches":
        raise ParseError(lineno, "expected 'switches <string of +/->'")
    if len(fields[1]) != n:
        raise ParseError(
            lineno, f"switch string has length {len(fields[1])}, expected {_clip(str(n))}"
        )
    # checked once the switch string agrees with the count, and before
    # anything n-sized is built
    if n > VERTEX_LIMIT:
        raise ParseError(header_line, f"vertex count {n} is above the limit of {VERTEX_LIMIT}")
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
    try:
        initially_on = BitVec.from01(fields[1])
    except ValueError:
        raise ParseError(lineno, "state string may contain only '0' and '1'") from None

    # Instance validates the edges as it consumes them, so the first bad
    # edge it reports is also the first bad line in file order
    edge_lines: list[int] = []

    def edges() -> Iterator[tuple[int, int]]:
        for lineno, line in lines:
            fields = line.split()
            if fields[0] != "e" or len(fields) != 3:
                raise ParseError(lineno, f"expected 'e <i> <j>', got {_clip(line)!r}")
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(lineno, f"edge endpoints in {_clip(line)!r} are not integers") from None
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


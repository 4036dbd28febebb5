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
digits without leading zeros, and every line ending in '\n'.  The bulk
path reads bytes: a file's, with CRLF and lone CR read as '\n' as text
mode reads them, or an ASCII str's encoding.  A regular expression
admits the header; no regular expression reads the edge lines.  They are
read slab by slab: a slab is admitted when, with its digits deleted, it
reads 'e  \n' once per line, and it is split on spaces with an 'e'
appended, so each line gives two tokens, '<i>' and '<j>\ne', after the
slab's first 'e'.  A table kept for the process, grown to the largest n
parsed so far, holds both forms of each vertex number's token and turns
each endpoint token into its vertex with one lookup.  A leading zero, a
digit beside an 'e' and digits after the last newline each leave a token
that finds no key, or a slab's first token other than 'e'.
The bulk path makes no edge tuples and sorts nothing: the endpoints go
straight to ``gf2._packed_endpoints``, which builds the rows of the
linear system (see ``gf2._packed_system``) and turns away a self-loop, a
repeated edge and an endpoint >= n.  The Instance derives its sorted
edges from the rows only when they are read.
Any other text, and any text the bulk path finds a fault in, goes to the
line-by-line parser, which reads a str; bytes are decoded as UTF-8 for it
only.  So every other valid layout (comments, blank lines, CRLF, tabs,
extra spaces, a missing final newline) parses to the same Instance, and
only the line parser raises ParseError, naming the first bad line in file
order.  Both paths refuse a vertex count above VERTEX_LIMIT before
building anything n-sized.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from operator import itemgetter

from .gf2 import BitVec
from .lamps import EdgeError, Instance, SwitchType, _clip


class ParseError(ValueError):
    """Instance text that does not follow the format; carries the line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _int(text: str) -> int:
    """int(text), the package's one integer reader, for files and flags.  An
    optionally signed run of decimal digits too long for int() (4300 digits
    by default; see sys.set_int_max_str_digits) reads as its sign and first
    100 significant digits: out of every range this package takes, and
    printed alike once clipped.  Raises ValueError for other non-integers."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        sign = digits[:1] if digits[:1] in ("+", "-") else ""
        digits = digits[len(sign) :]
        if not digits.isdecimal():
            raise
        # int() counts leading zeros too; the value does not
        return int(sign + "0" + digits.lstrip("0")[:100])


# argparse names a type by __name__ in its error for text the type turns
# away, so an integer flag's reads "invalid int value", as with int
_int.__name__ = "int"


_SWITCH_OF = {s.value: s for s in SwitchType}

# most vertices an instance read from text may have: each vertex gets an
# n-bit row, so memory grows as n squared whatever the edge count;
# `allones solve` of a path, tree or grid this size peaks at 134-180 MiB RSS
VERTEX_LIMIT = 30_000

# The header render_instance writes: n, the switch string and the state
# string are groups 1-3.  The edge lines after it, in any order, are each
# exactly 'e <i> <j>'; _edge_endpoints checks them without a regex
_HEADER = re.compile(rb"allones ([1-9][0-9]*)\nswitches ([+-]+)\non ([01]+)\n")

# bytes of edge lines checked and split at a time; a split keeps a token
# for every number, so only one slab's worth of them is alive at once
_SLAB = 1 << 14

# an edge line 'e <i> <j>\n' with its digits deleted
_EDGE_LAYOUT = b"e  \n"
_DIGITS = b"0123456789"

# vertex number v's ASCII decimal token to v, bare (b"%d") and as the split
# leaves a second endpoint, with its newline and the next line's 'e'
# (b"%d\ne"), for every v below the largest vertex count parsed so far in
# this process; a lookup converts a token in about half the time int()
# takes and has no key for a leading zero.  It holds two entries per
# vertex, at most 2 * VERTEX_LIMIT, as _parse_canonical checks n first:
# 0.3 MiB at 1,600 vertices and 5.6 MiB at the limit (3.3 MiB with one
# entry per vertex).  An entry never changes, so two parses growing it at
# once only write equal entries
_VERTEX_OF: dict[bytes, int] = {}


def parse_switch_string(text: str) -> tuple[SwitchType, ...]:
    """'+'/'-' characters to switch types; raises ValueError on others."""
    # strip leaves the first character that is not '+' or '-' in front
    bad = text.strip("+-")
    if bad:
        raise ValueError(f"switch character {bad[0]!r} is not '+' or '-'")
    return tuple(map(_SWITCH_OF.__getitem__, text))


def _edge_endpoints(data: bytes, start: int, n: int) -> list[int] | None:
    """The endpoints of the edge lines from start on, two per line in file
    order, or None if some line there is not exactly 'e <i> <j>' ending in
    a newline.  An endpoint may be >= n when a larger instance was parsed
    before; the row build turns it away."""
    known = len(_VERTEX_OF) // 2
    if known < n:
        # from pairs, so no second table is built alongside
        _VERTEX_OF.update((key, v) for v in range(known, n) for key in (b"%d" % v, b"%d\ne" % v))
    ends: list[int] = []
    end = len(data)
    try:
        while start < end:
            # a slab ends at a newline, or at the end of the text
            stop = data.find(b"\n", start + _SLAB) + 1 or end
            slab = data[start:stop]
            # with an 'e' appended, each line splits into '<i>' and
            # '<j>\ne' after the slab's first 'e'
            tokens = (slab + b"e").split(b" ")
            # once each line reads 'e  \n' with its digits deleted, a
            # first endpoint's token holds no newline and a second one's
            # holds one, so each finds a key only in its own form.  Digits
            # after the last newline end up in the last token, beside the
            # appended 'e', where they find no key
            if tokens[0] != b"e" or slab.translate(None, _DIGITS) != _EDGE_LAYOUT * (
                len(tokens) >> 1
            ):
                return None
            del tokens[0]
            # a slab holds at least one line, so two tokens or more, and
            # itemgetter gives a tuple of their vertices
            ends += itemgetter(*tokens)(_VERTEX_OF)
            start = stop
    except KeyError:
        return None
    return ends


def _parse_canonical(text: str | bytes) -> Instance | None:
    """The bulk path: the instance for canonical-layout text, or None."""
    if isinstance(text, str):
        # canonical text is ASCII, which encodes by one copy
        if not text.isascii():
            return None
        text = text.encode()
    header = _HEADER.match(text)
    if header is None:
        return None
    # the regex admits no leading zero, so the count reads exactly str(n)
    n = len(header[2])
    if n > VERTEX_LIMIT or header[1] != b"%d" % n or len(header[3]) != n:
        return None
    ends = _edge_endpoints(text, header.end(), n)
    if ends is None:
        return None
    switches = parse_switch_string(header[2].decode())
    return Instance._from_endpoints(n, ends, switches, BitVec.from01(header[3].decode()))


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_instance(text: str | bytes) -> Instance:
    """Parse the text format; raises ParseError with a line number.

    Bytes are read as a UTF-8 file opened in text mode reads: CRLF and a
    lone CR end a line, and bytes that are not UTF-8 raise
    UnicodeDecodeError, naming the same byte position."""
    data = text
    if isinstance(text, bytes) and b"\r" in text:
        data = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    inst = _parse_canonical(data)
    if inst is None:
        # the line parser ends a line at CR and CRLF itself, and decoding
        # the untranslated bytes keeps a decode error's byte position
        inst = _parse_lines(text.decode() if isinstance(text, bytes) else text)
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
        n = _int(fields[1])
    except ValueError:
        raise ParseError(header_line, f"vertex count {_clip(fields[1])!r} is not an integer") from None
    if n < 1:
        raise ParseError(header_line, f"vertex count must be >= 1, got {_clip(n)}")
    # a count too long for int(), which _int cut to 100 digits, can match
    # no switch string, so it is refused before the switch line is read
    if n > VERTEX_LIMIT and len(fields[1].lstrip("+0")) > len(str(n)):
        raise ParseError(
            header_line, f"vertex count {_clip(n)} is above the limit of {VERTEX_LIMIT}"
        )

    lineno, fields = next_line("the 'switches' line")
    if len(fields) != 2 or fields[0] != "switches":
        raise ParseError(lineno, "expected 'switches <string of +/->'")
    if len(fields[1]) != n:
        raise ParseError(
            lineno, f"switch string has length {len(fields[1])}, expected {_clip(n)}"
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
                i, j = _int(fields[1]), _int(fields[2])
            except ValueError:
                raise ParseError(
                    lineno, f"edge endpoints in {_clip(line)!r} are not integers"
                ) from None
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


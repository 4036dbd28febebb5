"""Hypothesis properties of the text format and the random generators."""

import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allones import gf2
from allones.approx import solve_approx
from allones.generators import (
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_gnp,
    gen_random_mixed,
    gen_random_tree,
)
from allones.gf2 import BitVec, _mirror, _row_bytes, column_echelon_grouped
from allones.instance_io import (
    ParseError,
    _parse_canonical,
    _parse_lines,
    parse_instance,
    render_instance,
)
from allones.lamps import Instance, SwitchType, build_system


@st.composite
def instances(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    switches = draw(st.lists(st.sampled_from(SwitchType), min_size=n, max_size=n))
    on = draw(st.integers(0, (1 << n) - 1))
    return Instance(n, edges, switches, BitVec(n, on))


# edge lines the parser rejects before Instance sees them: a malformed
# 'e' line or an endpoint that is not an integer
SYNTAX_FAULTS = ["e", "e 1", "e 0 1 2", "f 0 1", "e x 1", "e 0 1.5", "e 0x1 2"]


def _first_bad(n, items):
    """Index of the first syntax fault (a str) or out-of-range, self-loop
    or repeated edge, or None."""
    seen = set()
    for k, item in enumerate(items):
        if isinstance(item, str):
            return k
        i, j = item
        e = (min(i, j), max(i, j))
        if not (0 <= i < n and 0 <= j < n) or i == j or e in seen:
            return k
        seen.add(e)
    return None


@settings(deadline=None)
@given(instances())
def test_render_parse_round_trip(inst):
    parsed = parse_instance(render_instance(inst))
    assert parsed == inst
    assert hash(parsed) == hash(inst)
    assert repr(parsed) == repr(inst)
    assert parsed.switches == inst.switches
    assert parsed.initially_on == inst.initially_on


@settings(deadline=None)
@given(st.data())
def test_first_bad_edge_line(data):
    inst = data.draw(instances(max_n=10))
    n = inst.n
    edges = [data.draw(st.sampled_from([(i, j), (j, i)])) for i, j in inst.edges]
    loops = st.integers(0, n - 1).map(lambda v: (v, v))
    outside = st.tuples(st.integers(-3, n + 3), st.integers(-3, n + 3)).filter(
        lambda e: not (0 <= e[0] < n and 0 <= e[1] < n)
    )
    bad_kinds = [loops, outside]
    if edges:
        bad_kinds.append(st.sampled_from(edges).map(lambda e: e[::-1]))
    for bad in data.draw(st.lists(st.one_of(bad_kinds), min_size=1, max_size=4)):
        edges.insert(data.draw(st.integers(0, len(edges))), bad)
    # syntax faults land before or after the first bad edge; either way the
    # error names the first bad line in file order
    items = list(edges)
    for fault in data.draw(st.lists(st.sampled_from(SYNTAX_FAULTS), max_size=2)):
        items.insert(data.draw(st.integers(0, len(items))), fault)
    # blank and comment lines between edges keep line numbers apart from
    # edge positions
    lines = render_instance(Instance(n, (), inst.switches, inst.initially_on)).splitlines()
    item_line = []
    for item in items:
        lines.extend(data.draw(st.lists(st.sampled_from(["", "# note"]), max_size=2)))
        lines.append(item if isinstance(item, str) else f"e {item[0]} {item[1]}")
        item_line.append(len(lines))
    k = _first_bad(n, items)
    assert k is not None
    with pytest.raises(ValueError) as by_instance:
        Instance(n, edges)
    with pytest.raises(ParseError) as by_parse:
        parse_instance("\n".join(lines) + "\n")
    assert by_parse.value.line == item_line[k]
    if isinstance(items[k], str):
        assert repr(items[k]) in str(by_parse.value)
    else:
        assert str(by_parse.value) == f"line {item_line[k]}: {by_instance.value}"


@settings(deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
def test_mixed_draws_its_edges_like_gnp(n, p, seed):
    assert gen_random_mixed(n, p, seed).edges == gen_random_gnp(n, p, seed).edges


@settings(deadline=None)
@given(st.data())
def test_instance_sorts_canonical_edges(data):
    n = data.draw(st.integers(1, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    canonical = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [
        data.draw(st.sampled_from([e, e[::-1]]))
        for e in data.draw(st.permutations(canonical))
    ]
    assert Instance(n, edges).edges == tuple(sorted(canonical))


SEEDS = st.integers(0, 2**64 - 1)
GENERATED = st.one_of(
    st.integers(1, 30).map(gen_path),
    st.integers(1, 30).map(gen_cycle),
    st.integers(1, 12).map(gen_complete),
    st.builds(gen_grid, st.integers(1, 6), st.integers(1, 6)),
    st.builds(gen_random_gnp, st.integers(1, 30), st.floats(0.0, 1.0), SEEDS),
    st.builds(gen_random_tree, st.integers(1, 40), SEEDS),
    st.builds(gen_random_mixed, st.integers(1, 30), st.floats(0.0, 1.0), SEEDS),
    instances(),
)

# other spellings of an endpoint that int() reads, which the bulk path
# declines: a leading zero, a plus sign, Arabic-Indic digits
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
SPELLINGS = [
    lambda v: f"0{v}",
    lambda v: f"+{v}",
    lambda v: str(v).translate(ARABIC_INDIC),
]


@settings(deadline=None)
@given(GENERATED, st.data())
def test_bulk_path_agrees_with_line_parser(inst, data):
    """parse_instance takes the bulk path or the line parser; on every
    perturbation of rendered text it answers as the line parser does."""
    n = inst.n
    header = render_instance(inst).splitlines()[:3]
    edges = list(inst.edges)
    if data.draw(st.booleans()):
        edges = data.draw(st.permutations(edges))
    edges = [data.draw(st.sampled_from([e, e[::-1]])) for e in edges]
    # reordered edges keep the canonical layout, so the bulk path answers
    canonical = True
    fault = data.draw(st.sampled_from([None, "self-loop", "duplicate", "out of range"]))
    if fault is not None and (fault != "duplicate" or edges):
        if fault == "self-loop":
            bad = (data.draw(st.integers(0, n - 1)),) * 2
        elif fault == "duplicate":
            bad = data.draw(st.sampled_from(edges))[::-1]
        else:
            bad = (data.draw(st.integers(0, n - 1)), n + data.draw(st.integers(0, 3)))
        edges.insert(data.draw(st.integers(0, len(edges))), bad)
        canonical = False
    lines = header + [f"e {i} {j}" for i, j in edges]
    if edges and data.draw(st.booleans()):
        k = data.draw(st.integers(3, len(lines) - 1))
        spell = data.draw(st.sampled_from(SPELLINGS))
        _, i, j = lines[k].split()
        lines[k] = f"e {spell(int(i))} {j}"
        canonical = False
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = lines[k].replace(" ", data.draw(st.sampled_from(["\t", "  ", " \t"])), 1)
        canonical = False
    plain = "".join(line + "\n" for line in lines)
    for _ in range(data.draw(st.integers(0, 2))):
        extra = data.draw(st.sampled_from(["", "# note", "  ", "#"]))
        lines.insert(data.draw(st.integers(0, len(lines))), extra)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if data.draw(st.booleans()):
        text += newline
    # a blank line put last, with no final newline after it, leaves the
    # text in the canonical layout
    canonical = canonical and text == plain
    # a last line of digits alone with no newline after it: after a whole
    # line, or cut from the last edge line before its second endpoint
    tail = data.draw(st.sampled_from([None, "after", "cut"]))
    if tail == "after":
        text += ("" if text.endswith("\n") else newline) + str(data.draw(st.integers(0, n + 3)))
        canonical = False
    elif tail == "cut" and (last := re.search(r" ([0-9]+)(\r?\n)?\Z", text)):
        text = text[: last.start()] + " " + newline + last[1]
        canonical = False

    bulk = _parse_canonical(text)
    try:
        expected = _parse_lines(text)
    except ParseError as exc:
        assert bulk is None
        with pytest.raises(ParseError) as got:
            parse_instance(text)
        assert (got.value.line, str(got.value)) == (exc.line, str(exc))
    else:
        assert expected == inst
        assert parse_instance(text) == expected
        assert (bulk is not None) == canonical
        assert bulk is None or bulk == expected


@settings(deadline=None)
@given(GENERATED, st.data())
def test_packed_rows_match_the_natural_system(base, data):
    """The parse and the constructor build the same packed rows, the rows
    are the mirrored natural system, and solve_approx on them decomposes
    as gf2.solve does on build_system."""
    n = base.n
    switches = data.draw(st.lists(st.sampled_from(SwitchType), min_size=n, max_size=n))
    on = BitVec(n, data.draw(st.integers(0, (1 << n) - 1)))
    inst = Instance(n, base.edges, switches, on)
    parsed = _parse_canonical(render_instance(inst))
    assert parsed is not None and parsed._rows is not None and inst._rows is None
    rows = parsed._packed_rows()
    assert inst._packed_rows() == rows
    # the natural masks, from the edges alone
    masks = [1 << v if s is SwitchType.SIGMA_PLUS else 0 for v, s in enumerate(switches)]
    for i, j in base.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    nbytes = _row_bytes(n)
    assert rows == tuple(_mirror(mask, nbytes) | (not on[v]) for v, mask in enumerate(masks))
    system = build_system(inst)
    assert build_system(parsed) == system and system[0].packed_rows == tuple(masks)
    r, res = gf2.solve(*system)
    for got_r, sol in (solve_approx(inst), solve_approx(parsed)):
        assert got_r == r
        if res is None:
            assert sol is None
        else:
            dec = sol.decomposition
            want = column_echelon_grouped(res[1], res[0])
            assert (dec.gamma, dec.basis, dec.parts) == (want.gamma, want.basis, want.parts)


@settings(deadline=None)
@given(GENERATED, st.data())
def test_bytes_parse_as_text_mode_reads_them(inst, data):
    """parse_instance of a file's bytes answers as parse_instance of the
    text a UTF-8 text-mode read of the file gives: same instance, or same
    error and message, byte positions included."""
    lines = render_instance(inst).splitlines()
    # a line of each kind the ends may land in or beside
    for _ in range(data.draw(st.integers(0, 2))):
        extra = data.draw(st.sampled_from(["# note", "", "e 0 0", "\u00e9", "e 0 1 2"]))
        lines.insert(data.draw(st.integers(0, len(lines))), extra)
    ends = [data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    raw = "".join(line + end for line, end in zip(lines, ends)).encode()
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(raw)))
        raw = raw[:k] + data.draw(st.sampled_from([b"\xff", b"\xe9", b"\r", b"\r\n", b"7"])) + raw[k:]

    def outcome(parse):
        try:
            return parse()
        except (ParseError, UnicodeDecodeError) as exc:
            return type(exc), str(exc)

    read = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read
    assert outcome(lambda: parse_instance(raw)) == outcome(lambda: parse_instance(read()))

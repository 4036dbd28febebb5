"""Text format round-trips, parse errors with line numbers, generators."""

import contextlib
import hashlib
import io
import random
import re

import pytest

from allones import approx, cli, gf2, instance_io, lamps
from allones.generators import (
    SplitMix64,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_gnp,
    gen_random_mixed,
    gen_random_tree,
)
from allones.gf2 import BitVec
from allones.instance_io import (
    ParseError,
    _header_bytes,
    _parse_canonical,
    _parse_lines,
    parse_instance,
    render_instance,
)
from allones.lamps import Instance, SwitchType, build_system, is_all_on, simulate_presses
from helpers import random_instance

K2_TEXT = "allones 2\nswitches ++\non 00\ne 0 1\n"


@pytest.fixture
def no_round_trip(monkeypatch):
    """Refuses every way the header strings could pass through a switch-type
    tuple or a BitVec on their way into an Instance: the constructor's
    switches and initially_on arguments, BitVec.from01 and to01, and the two
    read-only views.  Returns the monkeypatch, to undo it."""

    def refuse(name):
        def call(*args, **kwargs):
            raise LookupError(name)

        return call

    init = Instance.__init__

    def plain_init(self, n, edges=(), switches=None, initially_on=None):
        if switches is not None or initially_on is not None:
            raise LookupError("Instance(..., switches, initially_on)")
        init(self, n, edges)

    monkeypatch.setattr(Instance, "__init__", plain_init)
    monkeypatch.setattr(BitVec, "from01", refuse("from01"))
    monkeypatch.setattr(BitVec, "to01", refuse("to01"))
    monkeypatch.setattr(Instance, "switches", property(refuse("switches")))
    monkeypatch.setattr(Instance, "initially_on", property(refuse("initially_on")))
    return monkeypatch


class TestFormat:
    def test_render_k2_exact_bytes(self):
        assert render_instance(gen_complete(2)) == K2_TEXT

    def test_parse_render_round_trip(self):
        assert render_instance(parse_instance(K2_TEXT)) == K2_TEXT

    def test_comments_and_blank_lines_ignored(self):
        text = "# a puzzle\n\nallones 2\n# kinds\nswitches +-\non 10\n\ne 0 1\n"
        inst = parse_instance(text)
        assert inst.switches == (SwitchType.SIGMA_PLUS, SwitchType.SIGMA)
        assert inst.initially_on == BitVec.from01("10")

    def test_round_trip_on_random_instances(self):
        rnd = random.Random(600)
        for _ in range(500):
            inst = random_instance(rnd, max_n=40)
            assert parse_instance(render_instance(inst)) == inst

    def test_canonical_parse_keeps_the_header_bytes(self, no_round_trip):
        # neither path builds a switch-type tuple or a BitVec: both hand the
        # header strings' bytes to the Instance as they were checked
        text = "allones 3\nswitches +-+\non 100\ne 0 1\ne 2 1\n"
        bulk, lines = parse_instance(text), _parse_lines(text)
        no_round_trip.undo()
        want = Instance(3, [(0, 1), (1, 2)], tuple(map(SwitchType, "+-+")), BitVec.from01("100"))
        for inst in (bulk, lines):
            assert inst == want
            assert (inst._kinds, inst._lamps) == (b"+-+", b"100")
            assert (inst.switches, inst.initially_on) == (want.switches, want.initially_on)

    def test_edge_order_is_normalized(self):
        text = "allones 3\nswitches +++\non 000\ne 2 1\ne 1 0\n"
        assert parse_instance(text).edges == ((0, 1), (1, 2))


class TestParseErrors:
    def test_self_loop_reports_line(self):
        text = "allones 2\nswitches ++\non 00\ne 0 0\n"
        with pytest.raises(ParseError, match="self-loop") as exc:
            parse_instance(text)
        assert exc.value.line == 4
        assert "line 4" in str(exc.value)

    def test_duplicate_edge(self):
        text = "allones 2\nswitches ++\non 00\ne 0 1\ne 1 0\n"
        with pytest.raises(ParseError, match="duplicate") as exc:
            parse_instance(text)
        assert exc.value.line == 5

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_instance("allones 2\nswitches ++\non 00\ne 0 2\n")

    def test_wrong_length_switch_string(self):
        with pytest.raises(ParseError, match="length 1, expected 2"):
            parse_instance("allones 2\nswitches +\non 00\n")

    def test_wrong_length_state_string(self):
        with pytest.raises(ParseError, match="length 3, expected 2"):
            parse_instance("allones 2\nswitches ++\non 000\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_instance("lamps 2\nswitches ++\non 00\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("allones 2\nswitch ++\non 00\n", 2, "expected 'switches <string of +/->'"),
            ("allones 2\nswitches ++ x\non 00\n", 2, "expected 'switches <string of +/->'"),
            ("allones 2\nswitches ++\nof 00\n", 3, "expected 'on <string of 0/1>'"),
            ("allones 2\n\n# c\nswitches ++\non 00 1\n", 5, "expected 'on <string of 0/1>'"),
        ],
    )
    def test_bad_keyword_line(self, text, line, message):
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_instance(text)
        assert exc.value.line == line

    def test_bad_switch_character(self):
        with pytest.raises(ParseError, match="not '\\+' or '-'"):
            parse_instance("allones 2\nswitches +x\non 00\n")

    def test_bad_state_character(self):
        with pytest.raises(ParseError, match="only '0' and '1'"):
            parse_instance("allones 2\nswitches ++\non 0x\n")

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="unexpected end"):
            parse_instance("allones 2\nswitches ++\n")

    def test_trailing_garbage_line(self):
        with pytest.raises(ParseError, match="expected 'e"):
            parse_instance(K2_TEXT + "edge 0 1\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            (K2_TEXT + "e 0 " + "9" * 5000 + "\n", 5),
            ("allones " + "9" * 5000 + "\nswitches +\non 0\n", 1),
            ("allones -" + "9" * 4000 + "\nswitches +\non 0\n", 1),
            ("allones " + "9" * 4000 + "\nswitches +\non 0\n", 2),
            (K2_TEXT + "e 0 1 " + "x" * 3000 + "\n", 5),
        ],
        ids=["endpoint", "count", "negative-count", "huge-count", "trailing-field"],
    )
    def test_long_fields_are_clipped(self, text, line):
        with pytest.raises(ParseError, match=r"\.\.\.") as exc:
            parse_instance(text)
        assert exc.value.line == line
        assert len(str(exc.value)) < 100

    # more digits than int() converts (4300 by default): out of range, not
    # "not an integer"
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "allones " + "9" * 5000 + "\nswitches +\non 0\n",
                "line 1: vertex count " + "9" * 40 + "... is above the limit of 30000",
            ),
            (
                "allones -" + "9" * 5000 + "\nswitches +\non 0\n",
                "line 1: vertex count must be >= 1, got -" + "9" * 39 + "...",
            ),
            (
                K2_TEXT + "e 0 " + "9" * 5000 + "\n",
                "line 5: edge (0, " + "9" * 20 + "...) out of range for 2 vertices",
            ),
            (
                K2_TEXT + "e -" + "9" * 5000 + " 1\n",
                "line 5: edge (-" + "9" * 19 + "..., 1) out of range for 2 vertices",
            ),
        ],
        ids=["count", "negative-count", "endpoint", "negative-endpoint"],
    )
    def test_overlong_integers_are_out_of_range(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert str(exc.value) == message

    def test_overlong_endpoint_after_a_bad_edge_keeps_file_order(self):
        text = K2_TEXT + "e 1 0\ne 0 " + "9" * 5000 + "\n"
        with pytest.raises(ParseError, match="duplicate edge") as exc:
            parse_instance(text)
        assert exc.value.line == 5

    @pytest.mark.parametrize(
        "text, value",
        [
            ("42", 42),
            (" -7\n", -7),
            ("9" * 5000, int("9" * 100)),
            ("-" + "9" * 5000, -int("9" * 100)),
            ("+" + "1" * 4301, int("1" * 100)),
            # int() counts leading zeros against its limit; the value does not
            ("0" * 5000 + "7", 7),
            ("-" + "0" * 5000, 0),
        ],
        ids=["short", "spaced", "long", "negative-long", "plus-long", "zeros", "negative-zeros"],
    )
    def test_int_reads_any_decimal_run(self, text, value):
        assert instance_io._int(text) == value

    @pytest.mark.parametrize("text", ["x", "", "1.5", "--1", "9" * 5000 + "x", "-"])
    def test_int_refuses_what_is_not_an_integer(self, text):
        with pytest.raises(ValueError):
            instance_io._int(text)

    def test_count_with_long_leading_zeros_reads_as_its_value(self):
        text = K2_TEXT.replace("allones 2", "allones " + "0" * 5000 + "2")
        assert parse_instance(text) == parse_instance(K2_TEXT)

    def test_zero_vertices_rejected(self):
        with pytest.raises(ParseError, match=">= 1"):
            parse_instance("allones 0\nswitches \non \n")


K3_TEXT = "allones 3\nswitches +-+\non 010\ne 0 1\ne 1 2\n"
# edge lines that outgrow one slab
LONG_PATH_TEXT = render_instance(gen_path(3000))


class TestBulkPath:
    def test_rendered_text_takes_the_bulk_path(self, monkeypatch):
        def refuse(text):
            raise AssertionError("the line parser was reached")

        monkeypatch.setattr(instance_io, "_significant_lines", refuse)
        # the tree's text spans several slabs
        for inst in (
            gen_grid(9, 7),
            gen_random_tree(12000, seed=3),
            gen_random_gnp(80, 0.3, seed=4),
            gen_random_mixed(60, 0.5, seed=5),
        ):
            lines = render_instance(inst).splitlines(keepends=True)
            assert parse_instance("".join(lines)) == inst
            # the same edges in reverse file order, endpoints swapped
            swapped = [f"e {j} {i}\n" for i, j in reversed(inst.edges)]
            assert parse_instance("".join(lines[:3] + swapped)) == inst

    # layouts the differential property test does not generate
    @pytest.mark.parametrize(
        "text",
        [
            K3_TEXT.replace("e 0 1", "e 0 1 "),
            K3_TEXT.replace("allones 3", "allones 03"),
            K3_TEXT + "e 0 " + "9" * 5000 + "\n",
            K3_TEXT.replace("+-+", "+-"),
            K3_TEXT.replace("010", "01"),
            K3_TEXT + "f 0 2\n",
            # lines that read 'e  ' with their digits deleted, and one that
            # is not ASCII
            K3_TEXT.replace("e 0 1", "e0 0 1"),
            K3_TEXT.replace("e 0 1", "0e 0 1"),
            K3_TEXT.replace("e 1 2", "\u00e9 1 2"),
            # a last line of digits alone, with no newline: after a whole
            # edge line, after one cut before its second endpoint, and
            # past the first slab
            K3_TEXT + "2",
            K3_TEXT.replace("e 1 2\n", "e 1 \n2"),
            pytest.param(LONG_PATH_TEXT + "2", id="trailing-digit-past-the-first-slab"),
        ],
    )
    def test_other_layouts_fall_back(self, text):
        assert _parse_canonical(text) is None
        try:
            expected = _parse_lines(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_instance(text)
            assert (got.value.line, str(got.value)) == (exc.line, str(exc))
        else:
            assert parse_instance(text) == expected == _parse_canonical(K3_TEXT)

    @pytest.mark.parametrize(
        "edges, line",
        [
            (["e 1 2", "e 0 3", "e 2 1"], 6),
            (["e 2 1", "e 1 2"], 5),
            (["e 0 3", "e 1 2", "e 3 0", "e 2 1"], 6),
        ],
    )
    def test_duplicate_in_either_orientation_falls_back(self, edges, line):
        text = "allones 4\nswitches ++-+\non 0010\n" + "".join(e + "\n" for e in edges)
        assert _parse_canonical(text) is None
        with pytest.raises(ParseError, match="duplicate edge") as exc:
            parse_instance(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("swap", [False, True])
    def test_duplicate_past_the_first_slab_falls_back(self, swap):
        tree = render_instance(gen_random_tree(12000, seed=3))
        first = tree.splitlines()[3]
        _, i, j = first.split()
        twin = f"e {j} {i}\n" if swap else first + "\n"
        # the edge lines start with the first edge and outgrow one slab
        assert len(tree) - tree.index("\ne ") > instance_io._SLAB
        text = tree + twin
        assert _parse_canonical(text) is None
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 3 + 12000
        assert str(exc.value) == f"line 12003: duplicate edge ({i}, {j})"

    # the bulk path turns away an endpoint >= n, its layout check a digit
    # joined to the 'e', and its popcount a self-loop: on a '+' vertex it
    # sets no new bit, on a '-' vertex one, where a new edge sets two.  The
    # vertex table is kept for the process, so after a larger instance was
    # parsed the endpoint n finds a key, and only the row build can turn it
    # away
    @pytest.mark.parametrize(
        "larger_first, minus, extra, message",
        [
            (False, False, "e 7 7", "self-loop at vertex 7"),
            (False, True, "e 7 7", "self-loop at vertex 7"),
            (False, False, "e 0 12000", "edge (0, 12000) out of range for 12000 vertices"),
            (True, False, "e 0 12000", "edge (0, 12000) out of range for 12000 vertices"),
            (False, False, "e0 0 2", "expected 'e <i> <j>', got 'e0 0 2'"),
        ],
        ids=[
            "plus-self-loop",
            "minus-self-loop",
            "endpoint-n",
            "endpoint-n-after-a-larger-parse",
            "digit-after-e",
        ],
    )
    def test_fault_past_the_first_slab_falls_back(self, larger_first, minus, extra, message):
        if larger_first:
            larger = gen_path(12001)
            assert _parse_canonical(render_instance(larger)) == larger
            assert instance_io._VERTEX_OF[b"12000"] == 12000
            # a last line's second endpoint arrives with its newline and
            # the 'e' the split appends, and finds a key too
            assert instance_io._VERTEX_OF[b"12000\ne"] == 12000
        inst = gen_random_tree(12000, seed=3)
        if minus:
            switches = list(inst.switches)
            switches[7] = SwitchType.SIGMA
            inst = Instance(inst.n, inst.edges, switches)
        tree = render_instance(inst)
        assert len(tree) - tree.index("\ne ") > instance_io._SLAB
        # without the extra line the text takes the bulk path
        assert _parse_canonical(tree) == inst
        text = tree + extra + "\n"
        assert _parse_canonical(text) is None
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 3 + 12000
        assert str(exc.value) == f"line 12003: {message}"


def _mixed_dense(n=300, seed=2):
    """G(n, 1/2) with mixed switches and some lamps lit, as canonical text:
    dense enough for the dense row build."""
    inst = gen_random_gnp(n, 0.5, seed=seed)
    rng = SplitMix64(seed)
    switches = tuple(SwitchType.SIGMA if rng.below(2) else SwitchType.SIGMA_PLUS for _ in range(n))
    inst = Instance(n, inst.edges, switches, BitVec(n, rng.bits(n)))
    width = 8 * (n // 8 + 1)
    assert gf2._DENSE_RATIO * len(inst.edges) >= width * width
    return inst, render_instance(inst)


def _loop_rows(inst):
    """inst's rows by the edge loop, called directly."""
    start = gf2._packed_system(inst.n, *inst._flag_bytes(), (), 0)
    return tuple(gf2._loop_route(start, gf2._column_bits(inst.n), inst.edges))


class TestDenseRoute:
    @pytest.fixture
    def routes(self, monkeypatch):
        """The vertex counts the dense row build ran for."""
        calls = []
        mirror = gf2._or_mirrored

        def spy(rows, cols):
            calls.append(cols)
            return mirror(rows, cols)

        monkeypatch.setattr(gf2, "_or_mirrored", spy)
        return calls

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    def test_dense_text_takes_the_dense_build(self, routes, order):
        inst, text = _mixed_dense()
        lines = text.splitlines(keepends=True)
        head, edge_lines = lines[:3], lines[3:]
        if order == "reversed":
            edge_lines = [f"e {j} {i}\n" for i, j in reversed(inst.edges)]
        elif order == "shuffled":
            random.Random(19).shuffle(edge_lines)
        parsed = _parse_canonical("".join(head + edge_lines))
        assert routes == [inst.n]
        assert parsed == inst
        assert parsed._packed_rows() == _loop_rows(inst)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_constructed_dense_instance_takes_the_dense_build(self, routes, mixed):
        inst, text = _mixed_dense() if mixed else (gen_random_gnp(300, 0.5, seed=1), None)
        rows = inst._packed_rows()
        # kept, so a second read builds nothing
        assert inst._packed_rows() is rows and routes == [inst.n]
        assert rows == _loop_rows(inst)
        parsed = _parse_canonical(text or render_instance(inst))
        assert parsed._rows == rows

    # 255 and 256 straddle a power of two in the row width W, 200 is the
    # rule's vertex minimum
    @pytest.mark.parametrize("n", [200, 255, 256, 300])
    def test_shuffled_dense_text_parses_to_the_built_instance(self, routes, n):
        rng = random.Random(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [(j, i) if rng.getrandbits(1) else (i, j) for i, j in rng.sample(pairs, len(pairs) // 2)]
        width = 8 * (n // 8 + 1)
        assert gf2._DENSE_RATIO * len(edges) >= width * width
        switches = tuple(SwitchType.SIGMA if rng.getrandbits(1) else SwitchType.SIGMA_PLUS for _ in range(n))
        inst = Instance(n, edges, switches, BitVec(n, rng.getrandbits(n)))
        # the sample is in random order, each edge in a random orientation
        head = render_instance(Instance(n, (), switches, inst.initially_on))
        parsed = _parse_canonical(head + "".join(f"e {i} {j}\n" for i, j in edges))
        assert routes == [n]
        assert parsed == inst

    # a repeat sets no new bit in the half rows, a reversed repeat adds a
    # bit its mirror already holds, and a self-loop lands on the diagonal:
    # the popcount turns each away.  An endpoint of n turns the row build
    # away before it mirrors
    @pytest.mark.parametrize(
        "extra, mirrors",
        [
            (lambda i, j, plus, minus: f"e {i} {j}", True),
            (lambda i, j, plus, minus: f"e {j} {i}", True),
            (lambda i, j, plus, minus: f"e {plus} {plus}", True),
            (lambda i, j, plus, minus: f"e {minus} {minus}", True),
            (lambda i, j, plus, minus: "e 0 300", False),
        ],
        ids=["duplicate", "reversed-duplicate", "plus-self-loop", "minus-self-loop", "endpoint-n"],
    )
    def test_faults_in_dense_text_give_the_line_parsers_error(self, routes, extra, mirrors):
        inst, text = _mixed_dense()
        i, j = inst.edges[len(inst.edges) // 2]
        plus = inst.switches.index(SwitchType.SIGMA_PLUS)
        minus = inst.switches.index(SwitchType.SIGMA)
        text += extra(i, j, plus, minus) + "\n"
        with pytest.raises(ParseError) as want:
            _parse_lines(text)
        routes.clear()
        assert _parse_canonical(text) is None
        assert routes == ([inst.n] if mirrors else [])
        with pytest.raises(ParseError) as got:
            parse_instance(text)
        assert got.value.line == want.value.line == 4 + len(inst.edges)
        assert str(got.value) == str(want.value)

    def test_sparse_and_small_inputs_keep_the_edge_loop(self, monkeypatch):
        def refuse(rows, cols):
            raise AssertionError(f"dense row build for {cols} vertices")

        monkeypatch.setattr(gf2, "_or_mirrored", refuse)
        # the benchmark's small inputs are n 8 to 24 at these densities
        insts = [
            gen_random_mixed(n, p, seed=n) for n in range(1, 25) for p in (0.2, 0.5, 0.8, 1.0)
        ]
        insts += [gen_random_tree(2000, seed=1), gen_grid(40, 40), gen_random_gnp(1000, 10 / 1000, seed=1)]
        for inst in insts:
            assert _parse_canonical(render_instance(inst)) == inst


class TestVertexLimit:
    @pytest.mark.parametrize("comment", ["", "# a comment sends the text to the line parser\n"])
    def test_count_at_the_limit_parses_and_one_more_is_refused(self, monkeypatch, comment):
        monkeypatch.setattr(instance_io, "VERTEX_LIMIT", 6)
        at = comment + render_instance(gen_path(6))
        assert parse_instance(at) == gen_path(6)
        assert (_parse_canonical(at) is None) == bool(comment)
        over = comment + render_instance(gen_path(7))
        assert _parse_canonical(over) is None
        with pytest.raises(ParseError) as exc:
            parse_instance(over)
        header = 2 if comment else 1
        assert str(exc.value) == f"line {header}: vertex count 7 is above the limit of 6"


def _families():
    """One instance per generator family, all '+' with lamps off, then each
    again with seeded mixed switches and lamps."""
    insts = {
        "path": gen_path(7),
        "cycle": gen_cycle(9),
        "complete": gen_complete(8),
        "grid": gen_grid(5, 4),
        "gnp": gen_random_gnp(40, 0.3, seed=11),
        "tree": gen_random_tree(60, seed=12),
    }
    rng = SplitMix64(14)
    for name, inst in list(insts.items()):
        switches = tuple(
            SwitchType.SIGMA if rng.below(2) else SwitchType.SIGMA_PLUS
            for _ in range(inst.n)
        )
        on = BitVec(inst.n, rng.bits(inst.n))
        insts[name + "-mixed"] = Instance(inst.n, inst.edges, switches, on)
    insts["random-mixed"] = gen_random_mixed(35, 0.4, seed=13)
    return insts


FAMILIES = _families()


class TestTwoForms:
    """An Instance built from edges and one parsed from text (packed rows,
    edges derived from them) are the same value."""

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_parsed_instance_agrees_with_built(self, family, order):
        inst = FAMILIES[family]
        lines = render_instance(inst).splitlines(keepends=True)
        head, edge_lines = lines[:3], lines[3:]
        if order == "reversed":
            edge_lines = [f"e {j} {i}\n" for i, j in reversed(inst.edges)]
        elif order == "shuffled":
            random.Random(15).shuffle(edge_lines)
        parsed = parse_instance("".join(head + edge_lines))
        system = build_system(parsed)
        assert system == build_system(inst)
        assert parsed.edges == inst.edges
        # deriving the edges leaves the rows alone
        assert build_system(parsed) == system
        assert parsed == inst and inst == parsed
        assert hash(parsed) == hash(inst)
        assert repr(parsed) == repr(inst)
        rng = SplitMix64(16)
        for _ in range(8):
            press = BitVec(inst.n, rng.bits(inst.n))
            assert simulate_presses(parsed, press) == simulate_presses(inst, press)

    # n = 7 fills one row byte to its last bit, 8 opens a second byte, 15
    # and 16 fill and pass it, 17 opens a third
    @pytest.mark.parametrize("n, grid", [
        (7, (7, 1)), (8, (4, 2)), (9, (3, 3)), (15, (5, 3)), (16, (4, 4)), (17, (17, 1)),
    ])
    def test_parsed_edges_agree_at_every_row_padding(self, n, grid):
        rng = SplitMix64(n)
        built = [
            gen_path(n), gen_cycle(n), gen_complete(n), gen_grid(*grid),
            gen_random_gnp(n, 0.5, seed=n), gen_random_tree(n, seed=n),
        ]
        for inst in built:
            switches = tuple(
                SwitchType.SIGMA if rng.below(2) else SwitchType.SIGMA_PLUS
                for _ in range(n)
            )
            inst = Instance(n, inst.edges, switches, BitVec(n, rng.bits(n)))
            parsed = _parse_canonical(render_instance(inst))
            assert parsed._edges is None
            assert parsed.edges == inst.edges

    def test_bulk_path_keeps_masks_and_derives_edges(self):
        inst = gen_random_mixed(30, 0.5, seed=17)
        parsed = _parse_canonical(render_instance(inst))
        assert parsed._edges is None and parsed._rows is not None
        assert hash(parsed) == hash(inst)
        assert parsed._edges == inst.edges
        # the constructor keeps the edges only
        assert inst._rows is None


def _gen(*argv):
    """What `allones gen ARGV` prints, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gen", *argv]) == 0
    return out.getvalue()


class TestOneWayIn:
    """Every producer hands an Instance the same header bytes and edges, and
    every Instance packs its rows once."""

    # both sides of a row's byte boundary (63, 64) and of the dense row
    # build's vertex floor (gf2._DENSE_MIN_N = 200)
    @pytest.mark.parametrize("n", [8, 63, 64, 200, 256])
    def test_four_producers_give_one_instance(self, n):
        assert gf2._DENSE_MIN_N == 200
        rnd = random.Random(n)
        kinds = "".join(rnd.choice("+-") for _ in range(n))
        lamps = "".join(rnd.choice("01") for _ in range(n))
        graph = gen_random_gnp(n, 0.5, seed=n)
        built = Instance(n, graph.edges, tuple(map(SwitchType, kinds)), BitVec.from01(lamps))
        text = render_instance(built)
        crlf = "# G(n, 1/2), mixed\r\n" + text.replace("\n", "\r\n")
        assert _parse_canonical(crlf) is None
        # the = form, since a string that starts with '-' would read as a flag
        generated = _gen("gnp", str(n), "0.5", "--seed", str(n), f"--switches={kinds}", "--on", lamps)
        assert generated == text
        producers = [_parse_canonical(text), _parse_lines(crlf), built, parse_instance(generated)]
        rows = built._packed_rows()
        for inst in producers:
            assert inst == built
            assert (inst._kinds, inst._lamps) == (kinds.encode(), lamps.encode())
            assert inst._packed_rows() == rows

    def test_line_parse_and_gen_overrides_keep_the_checked_bytes(self, no_round_trip):
        text = render_instance(gen_random_mixed(40, 0.3, seed=3))
        crlf = "# mixed\r\n" + text.replace("\n", "\r\n")
        kinds, lamps = text.split("\n")[1][9:], text.split("\n")[2][3:]
        lines = _parse_lines(crlf)
        generated = _gen("gnp", "40", "0.3", "--seed", "3", f"--switches={kinds}", "--on", lamps)
        no_round_trip.undo()
        assert (lines._kinds, lines._lamps) == (kinds.encode(), lamps.encode())
        assert lines == parse_instance(generated)
        assert render_instance(lines) == text

    def test_gen_puts_the_overrides_on_the_instance_it_built(self, monkeypatch):
        # the generated instance's edges are checked and sorted once
        made = []
        init = Instance.__init__
        monkeypatch.setattr(Instance, "__init__", lambda self, *a: made.append(a) or init(self, *a))
        out = _gen("grid", "3", "2", "--switches", "+-+-+-", "--on", "011010")
        assert len(made) == 1
        assert out.split("\n")[1:3] == ["switches +-+-+-", "on 011010"]

    def test_a_constructed_instance_packs_its_rows_once(self, monkeypatch):
        calls = []
        build = lamps._packed_system
        monkeypatch.setattr(lamps, "_packed_system", lambda *a: calls.append(a[0]) or build(*a))
        # a feasible draw, so the answer is replayed too
        inst = gen_random_mixed(30, 0.5, seed=4)
        _, sol = approx.solve_approx(inst)
        assert sol is not None
        assert is_all_on(simulate_presses(inst, sol.press))
        a, b = build_system(inst)
        assert calls == [30]
        # a parsed instance's rows come from the bulk parse itself
        parsed = parse_instance(render_instance(inst))
        assert parsed._packed_rows() == inst._packed_rows()
        assert build_system(parsed) == (a, b)
        assert calls == [30]


class TestGenerators:
    def test_grid_2x2_is_a_four_cycle(self):
        inst = gen_grid(2, 2)
        assert inst.n == 4
        assert len(inst.edges) == 4

    def test_path_of_one(self):
        inst = gen_path(1)
        assert (inst.n, inst.edges) == (1, ())

    def test_cycle_small_cases(self):
        assert gen_cycle(1).edges == ()
        assert gen_cycle(2).edges == ((0, 1),)
        assert len(gen_cycle(5).edges) == 5

    def test_complete_edge_count(self):
        assert len(gen_complete(6).edges) == 15

    def test_gnp_deterministic(self):
        a = gen_random_gnp(50, 0.1, seed=7)
        b = gen_random_gnp(50, 0.1, seed=7)
        assert a == b
        assert a != gen_random_gnp(50, 0.1, seed=8)

    def test_gnp_draws_are_pinned(self):
        # seeded fixtures and benchmark inputs depend on this exact draw
        # order: one u64 per pair, compared against int(p * 2**64)
        edges = gen_random_gnp(60, 0.1, seed=7).edges
        assert len(edges) == 176
        assert edges[:4] == ((0, 2), (0, 27), (0, 32), (0, 37))
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == (
            "8bc8c9dfe1a5e31eb7b1ccf73897f7498bd077ef92a025de68b381d25e48d562"
        )

    def test_gnp_extremes(self):
        assert gen_random_gnp(10, 0.0, seed=1).edges == ()
        assert len(gen_random_gnp(10, 1.0, seed=1).edges) == 45

    def test_tree_is_spanning(self):
        inst = gen_random_tree(30, seed=4)
        assert len(inst.edges) == 29
        reach = {0}
        frontier = [0]
        adj = {v: [] for v in range(30)}
        for i, j in inst.edges:
            adj[i].append(j)
            adj[j].append(i)
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in reach:
                    reach.add(u)
                    frontier.append(u)
        assert len(reach) == 30

    def test_defaults_are_classic_all_ones(self):
        inst = gen_path(4)
        assert all(s is SwitchType.SIGMA_PLUS for s in inst.switches)
        assert inst.initially_on == BitVec.zeros(4)

    def test_mixed_generator_deterministic(self):
        assert gen_random_mixed(12, 0.5, 99) == gen_random_mixed(12, 0.5, 99)

    def test_parameter_validation(self):
        for n in (0, -1):
            for gen in (gen_path, gen_cycle, gen_complete):
                with pytest.raises(ValueError):
                    gen(n)
            with pytest.raises(ValueError):
                gen_random_gnp(n, 0.5, seed=0)
            with pytest.raises(ValueError):
                gen_random_tree(n, seed=0)
            with pytest.raises(ValueError):
                gen_random_mixed(n, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_grid(0, 3)
        with pytest.raises(ValueError):
            gen_grid(-1, -1)
        for gen in (gen_random_gnp, gen_random_mixed):
            with pytest.raises(ValueError):
                gen(5, 1.5, seed=0)
            with pytest.raises(ValueError):
                gen(1, -0.5, seed=0)


class TestSplitMix64:
    def test_reference_vector(self):
        # first outputs for seed 0 per the reference implementation
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_below(self):
        rng = SplitMix64(42)
        vals = [rng.below(10) for _ in range(1000)]
        assert set(vals) <= set(range(10))

    def test_bits_width(self):
        rng = SplitMix64(1)
        for n in (1, 63, 64, 65, 200):
            assert rng.bits(n) >> n == 0
        with pytest.raises(ValueError, match="negative"):
            rng.bits(-1)


def test_header_bytes_rejects_garbage():
    assert _header_bytes("+-", 2, "switch") == b"+-" and _header_bytes("01", 2, "state") == b"01"
    with pytest.raises(ValueError, match=r"^switch character '\?' is not '\+' or '-'$"):
        _header_bytes("+?", 2, "switch")
    with pytest.raises(ValueError, match="^--on: state string may contain only '0' and '1'$"):
        _header_bytes("0+", 2, "state", "--on: ")
    with pytest.raises(ValueError, match="^state string has length 3, expected 2$"):
        _header_bytes("010", 2, "state")

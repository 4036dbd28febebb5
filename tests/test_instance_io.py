"""Text format round-trips, parse errors with line numbers, generators."""

import hashlib
import random

import pytest

from allones.gf2 import BitVec
from allones.instance_io import (
    ParseError,
    SplitMix64,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_gnp,
    gen_random_mixed,
    gen_random_tree,
    parse_instance,
    parse_switch_string,
    render_instance,
)
from allones.lamps import Instance, SwitchType
from helpers import random_instance

K2_TEXT = "allones 2\nswitches ++\non 00\ne 0 1\n"


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

    def test_zero_vertices_rejected(self):
        with pytest.raises(ParseError, match=">= 1"):
            parse_instance("allones 0\nswitches \non \n")


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

    def test_below_and_chance(self):
        rng = SplitMix64(42)
        vals = [rng.below(10) for _ in range(1000)]
        assert set(vals) <= set(range(10))
        rng = SplitMix64(42)
        assert not any(rng.chance(0.0) for _ in range(100))
        assert all(rng.chance(1.0) for _ in range(100))

    def test_bits_width(self):
        rng = SplitMix64(1)
        for n in (1, 63, 64, 65, 200):
            assert rng.bits(n) >> n == 0
        with pytest.raises(ValueError, match="negative"):
            rng.bits(-1)


def test_parse_switch_string_rejects_garbage():
    with pytest.raises(ValueError):
        parse_switch_string("+?")

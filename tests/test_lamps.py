"""Instance model: system construction and toggle simulation agree."""

import random

import numpy as np
import oracles
import pytest

from allones import gf2, lamps
from allones.gf2 import BitMat, BitVec, EchelonDecomposition, _mirror, _or_mirrored, _row_bytes
from allones.instance_io import parse_instance, render_instance
from allones.lamps import (
    EdgeError,
    Instance,
    Solution,
    SwitchType,
    build_system,
    is_all_on,
    simulate_presses,
)
from helpers import bitmat, mat_vec, random_instance

PLUS = SwitchType.SIGMA_PLUS
MINUS = SwitchType.SIGMA


class TestInstanceValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(EdgeError, match="self-loop") as exc:
            Instance(3, [(0, 1), (1, 1)])
        assert exc.value.index == 1

    def test_rejects_duplicate_edge_even_flipped(self):
        with pytest.raises(EdgeError, match="duplicate") as exc:
            Instance(3, [(0, 1), (1, 0)])
        assert exc.value.index == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(EdgeError, match="out of range") as exc:
            Instance(3, [(0, 3)])
        assert exc.value.index == 0

    def test_out_of_range_endpoints_are_clipped(self):
        # the message ends in its reason however long the endpoints are,
        # past the 4300 digits str() converts too
        for n, edge, shown in [
            (3, (-(10**30), 10**50), "-1000000000000000000..., 10000000000000000000..."),
            (2, (0, 10**5000), "0, 10000000000000000000..."),
        ]:
            with pytest.raises(EdgeError) as exc:
                Instance(n, [edge])
            assert exc.value.index == 0
            assert str(exc.value) == f"edge ({shown}) out of range for {n} vertices"

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            Instance(2, [], (PLUS,))
        with pytest.raises(ValueError):
            Instance(2, [], initially_on=BitVec.zeros(3))

    @pytest.mark.parametrize("on", ["01", 3, [0, 1]])
    def test_rejects_initially_on_that_is_not_a_bitvec(self, on):
        with pytest.raises(ValueError, match="must be a BitVec"):
            Instance(2, [], None, on)

    @pytest.mark.parametrize("switches", [("+", "+"), (True, False)])
    def test_rejects_switches_that_are_not_switch_types(self, switches):
        with pytest.raises(ValueError, match="switches must be SwitchType values"):
            Instance(2, [], switches)

    def test_integer_like_endpoints_become_ints(self):
        for edge in [(True, 2), (np.int64(1), np.uint8(2))]:
            inst = Instance(3, [(0, 2), edge])
            assert inst.edges == ((0, 2), (1, 2))
            assert all(type(v) is int for e in inst.edges for v in e)
            assert parse_instance(render_instance(inst)) == inst

    @pytest.mark.parametrize("count, n", [(True, 1), (np.int64(3), 3)])
    def test_integer_like_vertex_count_becomes_int(self, count, n):
        inst = Instance(count, [])
        assert type(inst.n) is int and inst.n == n
        assert parse_instance(render_instance(inst)) == inst

    @pytest.mark.parametrize("bad", [2.5, "3"])
    def test_rejects_non_integer_vertex_count(self, bad):
        with pytest.raises(ValueError, match="vertex count"):
            Instance(bad, [])

    @pytest.mark.parametrize("bad", [0.5, "1", None])
    def test_rejects_non_integer_endpoint(self, bad):
        with pytest.raises(EdgeError, match="non-integer") as exc:
            Instance(3, [(0, 1), (bad, 2)])
        assert exc.value.index == 1

    @pytest.mark.parametrize("bad", [(0, 1, 2), (1,), 5])
    def test_rejects_edge_that_is_not_a_pair(self, bad):
        with pytest.raises(EdgeError, match="not a pair") as exc:
            Instance(3, [(0, 1), bad])
        assert exc.value.index == 1

    def test_edges_are_canonicalized(self):
        a = Instance(3, [(2, 1), (1, 0)])
        b = Instance(3, [(0, 1), (1, 2)])
        assert a == b
        assert a.edges == ((0, 1), (1, 2))


class TestBuildSystem:
    def test_k2_all_plus_all_off(self):
        a, b = build_system(Instance(2, [(0, 1)]))
        assert a == bitmat([[1, 1], [1, 1]])
        assert b == BitVec.from01("11")

    def test_single_sigma_vertex_off(self):
        a, b = build_system(Instance(1, [], (MINUS,)))
        assert a == bitmat([[0]])
        assert b == BitVec.from01("1")

    def test_path_three_middle_lamp_on(self):
        inst = Instance(3, [(0, 1), (1, 2)], initially_on=BitVec.from01("010"))
        a, b = build_system(inst)
        assert a == bitmat([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert b == BitVec.from01("101")

    def test_matrix_is_symmetric(self):
        rnd = random.Random(11)
        for _ in range(100):
            a, _ = build_system(random_instance(rnd, max_n=20))
            rows = a.packed_rows
            assert all(
                (rows[i] >> j) & 1 == (rows[j] >> i) & 1
                for i in range(a.rows)
                for j in range(i)
            )

    @pytest.mark.parametrize(
        "switches, on",
        [
            ("+" * 9, "0" * 9),
            ("+-+" * 3, "1" * 9),
            ("-++" * 3, "01" * 4 + "0"),
            ("-", "0"),
        ],
        ids=["all-off", "all-on", "alternating", "one-minus-vertex"],
    )
    def test_packed_rows_carry_the_lamp_off_flags(self, switches, on):
        n = len(on)
        path = [(v, v + 1) for v in range(n - 1)]
        inst = Instance(n, path, tuple(map(SwitchType, switches)), BitVec.from01(on))
        a, b = build_system(inst)
        nbytes = _row_bytes(n)
        rows = tuple(_mirror(row, nbytes) | b[v] for v, row in enumerate(a.packed_rows))
        assert inst._packed_rows() == rows
        assert parse_instance(render_instance(inst))._packed_rows() == rows


class TestDenseBuild:
    """``gf2._dense_route``, one OR per edge and then ``gf2._or_mirrored``,
    gives ``gf2._loop_route``'s rows, and ``gf2._packed_system`` picks it by
    the rule for constructed and parsed instances alike."""

    # 127/128, 255/256 and 511/512 are where the row width passes a power
    # of two; 199/200 straddle the rule's vertex minimum; 1, 7 and 8 are a
    # single row byte, full and overflowing
    SIZES = [1, 7, 8, 127, 128, 199, 200, 255, 256, 300, 511, 512]

    @pytest.mark.parametrize("n", SIZES)
    def test_or_mirrored_matches_a_per_bit_oracle(self, n):
        rng = random.Random(n)
        width = 8 * _row_bytes(n)
        # random bits everywhere, the flag at bit 0 and the padding included
        rows = [rng.getrandbits(width) for _ in range(n)]
        want = []
        for i, row in enumerate(rows):
            for j, other in enumerate(rows):
                if other >> (width - 1 - i) & 1:
                    row |= 1 << (width - 1 - j)
            want.append(row)
        assert _or_mirrored(rows, n) == want

    @pytest.mark.parametrize("n", SIZES[3:])
    def test_both_builders_give_the_same_rows(self, n, monkeypatch):
        rng = random.Random(1000 + n)
        width = 8 * _row_bytes(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        threshold = -(-width * width // gf2._DENSE_RATIO)
        bit = gf2._column_bits(n)
        routes = []
        mirror = gf2._or_mirrored
        monkeypatch.setattr(gf2, "_or_mirrored", lambda rows, cols: routes.append(cols) or mirror(rows, cols))
        for count in (threshold - 1, threshold, threshold + 1, len(pairs)):
            count = min(count, len(pairs))
            # shuffled order, each edge in a random orientation
            edges = [(j, i) if rng.getrandbits(1) else (i, j) for i, j in rng.sample(pairs, count)]
            switches = tuple(MINUS if rng.getrandbits(1) else PLUS for _ in range(n))
            on = BitVec(n, rng.getrandbits(n))
            plus, off = lamps._flags(switches, on)
            # each route called directly, on the rows the builder starts from
            start = gf2._packed_system(n, plus, off, (), 0)
            routes.clear()
            loop = gf2._loop_route(list(start), bit, edges)
            assert routes == []
            assert gf2._dense_route(list(start), bit, edges) == loop
            assert routes == [n]
            # the builder's own choice, for a constructed and a parsed instance
            dense = n >= gf2._DENSE_MIN_N and count >= threshold
            for build in (
                lambda: Instance(n, edges, switches, on)._packed_rows(),
                lambda: Instance._from_endpoints(n, [v for edge in edges for v in edge], switches, on)._rows,
            ):
                routes.clear()
                assert list(build()) == loop
                assert routes == ([n] if dense else [])


class TestSimulate:
    def test_one_press_lights_k2(self):
        inst = Instance(2, [(0, 1)])
        assert simulate_presses(inst, BitVec.from01("10")) == BitVec.from01("11")

    def test_zero_press_is_identity(self):
        rnd = random.Random(12)
        for _ in range(20):
            inst = random_instance(rnd, max_n=16)
            assert simulate_presses(inst, BitVec.zeros(inst.n)) == inst.initially_on

    def test_sigma_press_skips_own_lamp(self):
        inst = Instance(2, [(0, 1)], (MINUS, PLUS))
        assert simulate_presses(inst, BitVec.from01("10")) == BitVec.from01("01")

    def test_press_length_checked(self):
        with pytest.raises(ValueError):
            simulate_presses(Instance(2, [(0, 1)]), BitVec.zeros(3))


def test_is_all_on():
    assert is_all_on(BitVec(7, (1 << 7) - 1))
    assert not is_all_on(BitVec.zeros(1))
    assert not is_all_on(BitVec.from01("1101"))
    assert is_all_on(BitVec.zeros(0))  # vacuous


def test_simulation_matches_algebra():
    # pressing p lights everything iff A.p = B, for any instance
    rnd = random.Random(314159)
    pairs = 0
    while pairs < 10_000:
        inst = random_instance(rnd, max_n=64)
        a, b = build_system(inst)
        for _ in range(5):
            press = BitVec(inst.n, rnd.getrandbits(inst.n))
            lit = is_all_on(simulate_presses(inst, press))
            assert lit == (mat_vec(a, press) == b)
            pairs += 1


def test_simulation_gives_the_oracles_final_state():
    # every lamp's final state, not only the all-on bit, on instances as
    # built from edges and as parsed, whose rows the bulk path packs; the
    # sizes straddle byte and word edges of the packed rows
    rnd = random.Random(2718)
    replays = 0
    for n in range(1, 71):
        for _ in range(2):
            p = rnd.random()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]
            plus = [not rnd.getrandbits(1) for _ in range(n)]
            on = BitVec(n, rnd.getrandbits(n))
            on_bits = list(map(int, on.to01()))
            built = Instance(n, edges, [PLUS if s else MINUS for s in plus], on)
            parsed = parse_instance(render_instance(built))
            assert parsed._rows is not None
            for bits in (0, (1 << n) - 1, rnd.getrandbits(n)):
                press = BitVec(n, bits)
                final = oracles.simulate(n, edges, plus, on_bits, list(map(int, press.to01())))
                want = "".join(map(str, final))
                for inst in (built, parsed):
                    assert simulate_presses(inst, press).to01() == want
                    replays += 1
    assert replays == 840


def test_with_opt_accepts_only_g1_to_weight():
    # part 0 is vertices 0, 2 and 4, where gamma presses only vertex 0, and
    # the press set is gamma plus both basis vectors
    dec = EchelonDecomposition(BitMat(2, 5, [0b00010, 0b01000]), BitVec.from01("10000"))
    assert dec.g1 == 1
    sol = Solution(BitVec.from01("11010"), dec)
    assert sol.weight == 3
    assert sol.with_opt(1).opt == 1
    assert sol.with_opt(3).opt == 3
    for opt in (0, 4):
        with pytest.raises(ValueError, match=f"opt {opt} outside"):
            sol.with_opt(opt)


def test_solution_rejects_a_press_set_of_another_length():
    dec = EchelonDecomposition(BitMat(2, 5, [0b00010, 0b01000]), BitVec.from01("10000"))
    with pytest.raises(ValueError, match="press vector length 3, expected 5"):
        Solution(BitVec(3, 0b111), dec)

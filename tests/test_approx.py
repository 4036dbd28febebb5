"""The greedy press-set solver: examples, guarantees, determinism."""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from allones.approx import greedy_assign, solve_approx, solve_from_decomposition
from allones.exact import _part_dp, exact_by_nullspace, exact_by_press_enumeration
from allones.generators import (
    SplitMix64,
    gen_complete,
    gen_grid,
    gen_random_gnp,
    gen_random_mixed,
    gen_random_tree,
)
from allones.gf2 import BitMat, BitVec, EchelonDecomposition
from allones.instance_io import parse_instance
from allones.lamps import Instance, SwitchType, build_system, is_all_on, simulate_presses
from helpers import answer, mat_vec, random_instance


def _dec(n, vecs, gamma_bits):
    return EchelonDecomposition(BitMat(len(vecs), n, vecs), BitVec(n, gamma_bits))


def _mixed(inst, seed):
    """inst's graph with seeded random switches, then seeded random lamps."""
    n = inst.n
    rng = SplitMix64(seed)
    sw = rng.bits(n)
    switches = [
        SwitchType.SIGMA if (sw >> v) & 1 else SwitchType.SIGMA_PLUS
        for v in range(n)
    ]
    return Instance(n, inst.edges, switches, BitVec(n, rng.bits(n)))


def _pinned_corpus():
    """Grids (all-'+' and seeded mixed), random trees, gen_random_mixed."""
    for w in (5, 6):
        grid = gen_grid(w, w)
        yield grid
        for seed in range(1, 6):
            yield _mixed(grid, seed)
    for n in (20, 50, 100):
        for seed in range(10):
            yield gen_random_tree(n, seed)
    for n in (6, 12, 24, 48):
        for p in (0.1, 0.3, 0.6):
            for seed in range(10):
                yield gen_random_mixed(n, p, seed)


def _majority_vote(dec):
    """The greedy written out: in basis order, z_k = 1 when it leaves fewer
    than half of part k+1 pressed.  Returns u's bits."""
    g, acc = dec.gamma.bits, 0
    for k, vec in enumerate(dec.basis.packed_rows):
        part = dec.parts[k + 1]
        if 2 * ((acc ^ g) & part).bit_count() > part.bit_count():
            acc ^= vec
    return acc ^ g


@st.composite
def decompositions(draw, max_n=12):
    """Independent random rows as drawn, not reduced, so a part may be empty."""
    n = draw(st.integers(1, max_n))
    rows, pivots = [], {}  # leading bit length -> a reduced row
    for row in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=n)):
        rest = row
        while rest and rest.bit_length() in pivots:
            rest ^= pivots[rest.bit_length()]
        if rest:
            pivots[rest.bit_length()] = rest
            rows.append(row)
    gamma = BitVec(n, draw(st.integers(0, (1 << n) - 1)))
    return EchelonDecomposition(BitMat(len(rows), n, rows), gamma)


class TestGreedyAssign:
    @settings(deadline=None)
    @given(decompositions())
    def test_matches_a_majority_vote(self, dec):
        u = greedy_assign(dec)
        assert u == BitVec(dec.n, _majority_vote(dec))
        vecs = dec.basis.packed_rows
        assert u.weight == _part_dp(dec.gamma.bits, vecs, dec.parts, [0] * dec.m)[0]

    def test_tie_prefers_zero(self):
        # both choices cost one press; the tie keeps z = 0
        dec = _dec(2, [0b11], 0b01)
        assert dec.parts == (0, 0b11)
        u = greedy_assign(dec)
        assert u == BitVec.from01("10")

    def test_majority_flips(self):
        dec = _dec(3, [0b111], 0b011)
        u = greedy_assign(dec)
        assert u == BitVec.from01("001")
        assert u.weight == 1

    def test_no_free_variables(self):
        dec = _dec(3, [], 0b110)
        u = greedy_assign(dec)
        assert u == BitVec(3, 0b110)

    def test_later_parts_see_earlier_choices(self):
        # epsilon rows (0b01, 0b01, 0b11, 0b11, 0b10): vertices 2 and 3 of
        # part 2 also carry basis vector 0, so part 2's mismatch count must be
        # read against the press bits z_0 left there
        dec = _dec(5, [0b01111, 0b11100], 0b00000)
        assert dec.parts == (0, 0b00011, 0b11100)
        u = greedy_assign(dec)
        # part 1: two mismatch-free vertices under z_0 = 0
        # part 2: prefix bits are 0, gammas 0 -> z_1 = 0, u all zero
        assert u == BitVec.zeros(5)
        # gamma = 1 on part 1 forces z_0 = 1, which leaves vertices 2 and 3
        # of part 2 pressed: two of three, so z_1 = 1 as well
        u = greedy_assign(_dec(5, [0b01111, 0b11100], 0b00011))
        assert u == BitVec(5, 0b10000)


class TestSolveApprox:
    def test_all_lamps_on_needs_no_press(self):
        grid = gen_grid(3, 3)
        inst = Instance(grid.n, grid.edges, None, BitVec(9, (1 << 9) - 1))
        _, sol = solve_approx(inst)
        assert sol.weight == 0
        assert sol.press == BitVec.zeros(9)

    def test_k2(self):
        _, sol = solve_approx(gen_complete(2))
        assert sol.weight == 1

    def test_triangle_certificate(self):
        _, sol = solve_approx(gen_complete(3))
        assert sol.weight == 1
        assert sol.decomposition.r == 1
        assert sol.decomposition.m == 2

    def test_infeasible_single_sigma(self):
        assert solve_approx(Instance(1, [], (SwitchType.SIGMA,))) == (0, None)

    def test_grid_press_lights_everything(self):
        inst = gen_grid(5, 5)
        _, sol = solve_approx(inst)
        assert is_all_on(simulate_presses(inst, sol.press))

    def test_deterministic(self):
        rnd = random.Random(88)
        for _ in range(30):
            inst = random_instance(rnd, max_n=24)
            (r1, first), (r2, second) = solve_approx(inst), solve_approx(inst)
            assert r1 == r2
            assert (first is None) == (second is None)
            if first is not None:
                assert answer(first) == answer(second)

    def test_answers_are_pinned(self):
        # press sets and certificates of a fixed seeded corpus; the digest
        # was taken from the row-sorted implementation this one replaced,
        # so a change in how ties or parts are read shows up here
        answers = []
        for inst in _pinned_corpus():
            r, sol = solve_approx(inst)
            if sol is None:
                answers.append((r, None))
            else:
                dec = sol.decomposition
                answers.append((r, sol.press.indices(), dec.m, dec.g0, dec.g1))
        assert len(answers) == 162
        assert sum(a[1] is not None for a in answers) == 96
        assert hashlib.sha256(repr(answers).encode()).hexdigest() == (
            "d1455abdacf76d577c99a77297cd9dd5189253f8ab9d18d20db6f153aa6844eb"
        )

    def test_wide_answers_are_pinned(self):
        # the corpus above stops at n=100, 13-byte rows; these rows run to
        # 200 bytes, so the elimination's packing is checked on many words.
        # The digest was taken from the lowest-bit keyed elimination
        bases = [
            gen_grid(25, 25),
            gen_grid(30, 30),
            gen_random_tree(800, 1),
            gen_random_tree(1600, 2),
            gen_random_gnp(500, 5 / 500, 3),
            gen_random_gnp(300, 0.5, 4),
        ]
        answers = []
        for k, base in enumerate(bases):
            for inst in (base, _mixed(base, 10 * k + 1), _mixed(base, 10 * k + 2)):
                r, sol = solve_approx(inst)
                if sol is None:
                    answers.append((r, None))
                else:
                    dec = sol.decomposition
                    answers.append((r, sol.press.indices(), dec.m, dec.g0, dec.g1))
        assert len(answers) == 18
        assert sum(a[1] is not None for a in answers) == 11
        assert hashlib.sha256(repr(answers).encode()).hexdigest() == (
            "8f5dbb000272380a82d2cc726e5f1ef984b97258341b33d088af66ad97502db1"
        )

    def test_suboptimal_case_still_respects_bounds(self):
        # a rare instance where the majority greedy misses the optimum
        # (sol 3 vs opt 2, found by randomized search); the certificate
        # chain must hold regardless
        inst = parse_instance(
            "allones 9\nswitches +---+++--\non 011110011\n"
            "e 0 2\ne 1 4\ne 2 6\ne 4 5\ne 4 6\ne 4 7\ne 5 8\ne 5 6\n"
        )
        _, sol = solve_approx(inst)
        opt = exact_by_press_enumeration(inst)[0]
        assert (sol.weight, opt) == (3, 2)
        dec = sol.decomposition
        assert dec.g1 <= opt <= sol.weight <= dec.r
        assert 2 * sol.weight <= inst.n + opt
        assert is_all_on(simulate_presses(inst, sol.press))

    def test_guarantees_on_random_instances(self):
        rnd = random.Random(1234)
        feasible = 0
        for _ in range(400):
            inst = random_instance(rnd, max_n=32)
            _, full = solve_approx(inst)
            if full is None:
                continue
            feasible += 1
            dec = full.decomposition
            sol = solve_from_decomposition(dec)
            a, b = build_system(inst)
            assert mat_vec(a, sol.press) == b
            assert is_all_on(simulate_presses(inst, sol.press))
            assert sol.weight <= dec.r
            assert 2 * sol.weight <= inst.n + dec.g1 - dec.g0
            u = greedy_assign(dec)
            for part in dec.parts[1:]:
                assert 2 * (u.bits & part).bit_count() <= part.bit_count()
        assert feasible >= 100


    def test_every_six_vertex_graph_is_pinned(self):
        # all 2**15 labelled graphs on 6 vertices, all '+' and lamps off, so
        # all feasible; with no random draw, any drift in the greedy's tie
        # rule or in the part-order DP moves a total
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        total_sol = total_opt = above_opt = 0
        for mask in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
            _, sol = solve_approx(Instance(6, edges))
            dec = sol.decomposition
            opt = exact_by_nullspace(dec.gamma, dec.basis)[0]
            total_sol += sol.weight
            total_opt += opt
            above_opt += sol.weight > opt
        assert (total_sol, total_opt, above_opt) == (86_015, 85_999, 8)


class TestComputeBounds:
    @staticmethod
    def _g0_g1(dec):
        return dec.g0, dec.g1

    def test_empty_part_zero(self):
        dec = _dec(2, [0b11], 0b01)
        assert self._g0_g1(dec) == (0, 0)

    def test_counts_forced_rows(self):
        dec = _dec(3, [], 0b100)  # part 0 gammas (0,0,1)
        assert self._g0_g1(dec) == (2, 1)
        assert dec.bound_mixed_x2 == 3 + 1 - 2

    def test_solution_properties_expose_bounds(self):
        # 5x5 grid: the null space vanishes on five vertices whose forced
        # press is 1, so g0=0, g1=5 (values derived with the dense oracle)
        _, sol = solve_approx(gen_grid(5, 5))
        dec = sol.decomposition
        assert dec.r == 23
        assert (dec.g0, dec.g1) == (0, 5)
        assert dec.bound_mixed_x2 == 25 + 5 - 0

"""The two exhaustive oracles: agreement with each other and with brute force."""

import random

import pytest

import numpy as np
import oracles
from allones import exact
from allones.approx import solve_approx
from allones.exact import exact_by_nullspace, exact_by_press_enumeration
from allones.generators import gen_complete, gen_grid, gen_random_mixed, gen_random_tree
from allones.gf2 import BitMat, BitVec, EchelonDecomposition, solve
from allones.lamps import Instance, SwitchType, build_system, is_all_on, simulate_presses
from helpers import bitmat, mat_vec, random_instance

PLUS = SwitchType.SIGMA_PLUS
MINUS = SwitchType.SIGMA


def test_unique_solution_system():
    # three isolated '+' vertices: m = 0, the only solution is gamma
    inst = Instance(3, [], initially_on=BitVec.from01("101"))
    a, b = build_system(inst)
    opt, argmin = exact_by_nullspace(*solve(a, b)[1])
    assert (opt, argmin) == (1, BitVec.from01("010"))
    assert exact_by_press_enumeration(inst) == (1, BitVec.from01("010"))


def test_triangle():
    inst = gen_complete(3)
    a, b = build_system(inst)
    assert exact_by_nullspace(*solve(a, b)[1])[0] == 1
    assert exact_by_press_enumeration(inst)[0] == 1


def test_grid_5x5_minimum_is_15():
    # frozen after confirming with the dense oracle (m = 2, four solutions)
    inst = gen_grid(5, 5)
    a, b = build_system(inst)
    opt, argmin = exact_by_nullspace(*solve(a, b)[1])
    assert opt == 15
    assert argmin.weight == 15
    assert is_all_on(simulate_presses(inst, argmin))
    dense = oracles.min_weight_solution_f2(
        *oracles.system_from_graph(25, oracles.grid_edges(5, 5), [True] * 25, [0] * 25)
    )
    assert dense[0] == 15


def test_single_vertex_cases():
    assert exact_by_press_enumeration(Instance(1, [], (PLUS,))) == (1, BitVec.from01("1"))
    assert exact_by_press_enumeration(Instance(1, [], (MINUS,))) is None


def test_limits_refuse():
    # isolated '-' vertices with lamps already on: m = n, and pressing
    # nothing is optimal
    for n in (exact.NULLSPACE_LIMIT, exact.NULLSPACE_LIMIT + 1):
        inst = Instance(n, [], (MINUS,) * n, BitVec(n, (1 << n) - 1))
        gamma, basis = solve(*build_system(inst))[1]
        expected = (0, BitVec.zeros(n)) if n <= exact.NULLSPACE_LIMIT else None
        assert exact_by_nullspace(gamma, basis) == expected
    with pytest.raises(ValueError):
        exact_by_press_enumeration(Instance(exact.PRESS_LIMIT + 1, []))


def test_lexicographic_tie_breaks():
    # K2 has two weight-1 solutions; the press oracle prefers the vector
    # with the earlier zero, the nullspace oracle the smaller combination
    inst = gen_complete(2)
    a, b = build_system(inst)
    assert exact_by_press_enumeration(inst) == (1, BitVec.from01("01"))
    assert exact_by_nullspace(*solve(a, b)[1]) == (1, BitVec.from01("10"))


def test_inconsistent_system_is_absent():
    # no solution set to walk: solve reports the rank and no (gamma, basis)
    a = bitmat([[0, 1], [0, 1]])
    assert solve(a, BitVec.from01("10")) == (1, None)


def test_mismatched_pair_is_rejected():
    with pytest.raises(ValueError):
        exact_by_nullspace(BitVec.zeros(2), BitMat(3, 3, [1 << i for i in range(3)]))


def test_oracles_agree_with_each_other_and_brute_force():
    rnd = random.Random(2023)
    feasible = 0
    for trial in range(300):
        inst = random_instance(rnd, max_n=10)
        a, b = build_system(inst)
        _, lin = solve(a, b)
        consistent = lin is not None
        by_null = exact_by_nullspace(*lin) if consistent else None
        by_press = exact_by_press_enumeration(inst)
        assert (by_null is not None) == consistent
        assert (by_press is not None) == consistent
        if not consistent:
            continue
        feasible += 1
        assert by_null[0] == by_press[0]
        # witnesses are valid minimizers
        assert mat_vec(a, by_null[1]) == b
        assert by_null[1].weight == by_null[0]
        assert is_all_on(simulate_presses(inst, by_press[1]))
        assert by_press[1].weight == by_press[0]
        if trial % 5 == 0:
            dense = oracles.brute_force_min_press(
                inst.n,
                list(inst.edges),
                [s is PLUS for s in inst.switches],
                [inst.initially_on[v] for v in range(inst.n)],
            )
            assert dense is not None and dense[0] == by_press[0]
            # the oracle keeps the first strict minimum in lexicographic
            # order, so both pick the lexicographically smallest optimum
            assert by_press[1] == BitVec.from01("".join(map(str, dense[1])))
    assert feasible >= 50


# (n, seed) of gen_random_tree instances (all '+', lamps off) with coranks 8..20
TREES = {
    8: (200, 26), 9: (200, 10), 10: (200, 7), 11: (200, 3), 12: (200, 1),
    13: (200, 8), 14: (200, 23), 15: (200, 14), 16: (200, 83), 17: (200, 178),
    18: (200, 105), 19: (240, 120), 20: (240, 112),
}


def by_walk(gamma, basis):
    opt, argmin = exact._gray_walk(gamma.bits, basis.packed_rows)
    return opt, BitVec(gamma.n, argmin)


def by_dp(gamma, basis):
    vecs = basis.packed_rows
    parts = EchelonDecomposition(basis, gamma).parts
    opt, argmin = exact._part_dp(gamma.bits, vecs, parts, exact._live_masks(vecs, parts))
    return opt, BitVec(gamma.n, argmin)


@pytest.fixture
def branch(monkeypatch):
    """Call exact_by_nullspace and name the branch it took."""
    taken = []
    for name in ("_gray_walk", "_part_dp"):
        def spy(*args, _name=name, _fn=getattr(exact, name)):
            taken.append(_name)
            return _fn(*args)
        monkeypatch.setattr(exact, name, spy)

    def call(gamma, basis):
        taken.clear()
        res = exact_by_nullspace(gamma, basis)
        assert len(taken) == 1
        return res, taken[0]
    return call


def dense_opt(a, b):
    a_np = np.array([[(row >> c) & 1 for c in range(a.cols)] for row in a.packed_rows])
    b_np = np.array([b[i] for i in range(b.n)])
    return oracles.min_weight_solution_f2(a_np, b_np)[0]


@pytest.mark.parametrize("m", sorted(TREES))
def test_trees_take_the_dp_and_match_the_walk(branch, m):
    n, seed = TREES[m]
    inst = gen_random_tree(n, seed)
    a, b = build_system(inst)
    dec = solve_approx(inst)[1].decomposition
    assert dec.m == m
    res, taken = branch(dec.gamma, dec.basis)
    assert taken == "_part_dp"
    assert res == by_walk(dec.gamma, dec.basis)
    # the unreduced basis of solve spans the same set
    gamma, basis = solve(a, b)[1]
    assert by_dp(gamma, basis)[0] == by_walk(gamma, basis)[0] == res[0]
    if m <= 12:
        assert res[0] == dense_opt(a, b)


def test_mixed_systems_agree_on_both_branches():
    checked = 0
    for seed in range(60):
        n = 8 + seed % 17
        inst = gen_random_mixed(n, (0.2, 0.5, 0.8)[seed % 3], seed)
        a, b = build_system(inst)
        _, lin = solve(a, b)
        if lin is None:
            continue
        dec = solve_approx(inst)[1].decomposition
        for gamma, basis in (lin, (dec.gamma, dec.basis)):
            res = by_walk(gamma, basis)
            assert by_dp(gamma, basis) == res
            assert exact_by_nullspace(gamma, basis) == res
            if basis.rows <= 12:
                assert res[0] == dense_opt(a, b)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("side", [9, 19])
def test_all_plus_grids_take_the_walk(branch, side):
    inst = gen_grid(side, side)
    dec = solve_approx(inst)[1].decomposition
    res, taken = branch(dec.gamma, dec.basis)
    assert taken == "_gray_walk"
    assert res == by_dp(dec.gamma, dec.basis)
    assert is_all_on(simulate_presses(inst, res[1]))


def test_dp_keeps_the_lexicographically_smallest_tie():
    # z = (1,0,0), (0,1,0), (1,1,0) and (1,0,1) all reach weight 1.  The
    # DP meets (1,0,0) before (0,1,0) under the same final key and must
    # keep the lexicographically smaller (0,1,0), whose press set is {0}.
    basis = bitmat([[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]])
    gamma = BitVec.from01("1101")
    assert by_walk(gamma, basis) == (1, BitVec.from01("1000"))
    assert by_dp(gamma, basis) == (1, BitVec.from01("1000"))


def test_corank_zero(branch):
    gamma = BitVec.from01("1011")
    basis = BitMat(0, 4, [])
    assert branch(gamma, basis) == ((3, gamma), "_part_dp")
    assert by_walk(gamma, basis) == (3, gamma)

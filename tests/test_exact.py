"""The two exhaustive oracles: agreement with each other and with brute force."""

import random

import pytest

import oracles
from allones.exact import exact_by_nullspace, exact_by_press_enumeration
from allones.gf2 import BitMat, BitVec, mat_vec, solve
from allones.instance_io import gen_complete, gen_grid
from allones.lamps import Instance, SwitchType, build_system, is_all_on, simulate_presses
from helpers import random_instance

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
    # m = 3 > limit: three isolated '-' vertices with lamps already on
    inst = Instance(3, [], (MINUS,) * 3, BitVec.ones(3))
    a, b = build_system(inst)
    gamma, basis = solve(a, b)[1]
    assert exact_by_nullspace(gamma, basis, limit=2) is None
    assert exact_by_nullspace(gamma, basis, limit=3) == (0, BitVec.zeros(3))
    with pytest.raises(ValueError):
        exact_by_press_enumeration(inst, limit=2)


def test_lexicographic_tie_breaks():
    # K2 has two weight-1 solutions; the press oracle prefers the vector
    # with the earlier zero, the nullspace oracle the smaller combination
    inst = gen_complete(2)
    a, b = build_system(inst)
    assert exact_by_press_enumeration(inst) == (1, BitVec.from01("01"))
    assert exact_by_nullspace(*solve(a, b)[1]) == (1, BitVec.from01("10"))


def test_inconsistent_system_is_absent():
    # no solution set to walk: solve reports the rank and no (gamma, basis)
    a = BitMat.from_lists([[0, 1], [0, 1]])
    assert solve(a, BitVec.from01("10")) == (1, None)


def test_mismatched_pair_is_rejected():
    with pytest.raises(ValueError):
        exact_by_nullspace(BitVec.zeros(2), BitMat.identity(3))


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
    assert feasible >= 50

"""The forest DP oracle against the other exact oracles and the solver."""

import random

import pytest

from allones import (
    BitVec,
    Instance,
    SwitchType,
    exact_by_nullspace,
    exact_by_press_enumeration,
    gen_path,
    gen_random_tree,
    is_all_on,
    simulate_presses,
    solve_approx,
)
from allones.exact import NULLSPACE_LIMIT, _live_masks, _part_dp
from oracles import forest_min_press


def random_forest(rnd: random.Random, n: int) -> Instance:
    """Random forest with shuffled labels and mixed switches.

    Random lamps make most mixed forests infeasible, so half the time the
    lamps are instead the ones a random press set would leave off, which
    makes the instance feasible.
    """
    label = list(range(n))
    rnd.shuffle(label)
    edges = [(label[rnd.randrange(v)], label[v]) for v in range(1, n) if rnd.random() < 0.85]
    switches = tuple(
        SwitchType.SIGMA if rnd.getrandbits(1) else SwitchType.SIGMA_PLUS for _ in range(n)
    )
    on = BitVec(n, rnd.getrandbits(n))
    if rnd.getrandbits(1):
        press = BitVec(n, rnd.getrandbits(n))
        toggled = simulate_presses(Instance(n, edges, switches), press).bits
        on = BitVec(n, ~toggled & ((1 << n) - 1))
    return Instance(n, edges, switches, on)


def forest_opt(inst: Instance):
    plus = [s is SwitchType.SIGMA_PLUS for s in inst.switches]
    on = [inst.initially_on[v] for v in range(inst.n)]
    return forest_min_press(inst.n, inst.edges, plus, on)


def test_small_cases_and_cycles():
    assert forest_opt(gen_path(3)) == 1
    assert forest_opt(Instance(1, [], (SwitchType.SIGMA,))) is None
    assert forest_opt(Instance(2, [], (SwitchType.SIGMA,) * 2, BitVec(2, 0b11))) == 0
    with pytest.raises(ValueError, match="cycle"):
        forest_min_press(3, [(0, 1), (1, 2), (0, 2)], [True] * 3, [0] * 3)


def test_agrees_with_press_enumeration():
    rnd = random.Random(4101)
    feasible = 0
    for _ in range(150):
        inst = random_forest(rnd, rnd.randint(1, 16))
        by_press = exact_by_press_enumeration(inst)
        assert forest_opt(inst) == (None if by_press is None else by_press[0])
        feasible += by_press is not None
    assert feasible >= 60


def test_agrees_with_nullspace_oracle_and_solver_feasibility():
    rnd = random.Random(4102)
    checked = infeasible = 0
    for _ in range(300):
        inst = random_forest(rnd, rnd.randint(1, 120))
        opt = forest_opt(inst)
        _, sol = solve_approx(inst)
        # infeasible exactly when the solver says so
        assert (opt is None) == (sol is None)
        if sol is None:
            infeasible += 1
            continue
        dec = sol.decomposition
        assert dec.g1 <= opt <= sol.weight
        if dec.m <= 20:
            assert exact_by_nullspace(dec.gamma, dec.basis)[0] == opt
            checked += 1
    assert checked >= 100 and infeasible >= 50


def test_all_plus_trees_meet_both_bounds():
    # n 200-400: far past the n <= 20 that the bench oracles reach
    for seed, n in enumerate((200, 257, 314, 371, 400)):
        inst = gen_random_tree(n, seed)
        opt = forest_opt(inst)
        _, sol = solve_approx(inst)
        sol = sol.with_opt(opt)
        assert 2 * sol.weight <= n + opt
        assert sol.weight <= sol.decomposition.r


def test_part_dp_agrees_past_the_walk_limit():
    # all-'+' trees with n=1000 have m 32-60, where exact_by_nullspace
    # returns None, so the DP is called on the decomposition directly
    for seed in range(40):
        inst = gen_random_tree(1000, seed)
        dec = solve_approx(inst)[1].decomposition
        assert dec.m > NULLSPACE_LIMIT
        vecs = dec.basis.packed_rows
        opt, argmin = _part_dp(dec.gamma.bits, vecs, dec.parts, _live_masks(vecs, dec.parts))
        assert opt == forest_opt(inst)
        press = BitVec(inst.n, argmin)
        assert press.weight == opt
        assert is_all_on(simulate_presses(inst, press))

"""The four workloads: what each one generates, and why it exists.

A workload is a fixed list of slots (family, size, variant); the seed only
decides the random structure inside each slot.  Keeping sizes and the
feasible/infeasible split fixed per slot keeps run-to-run spread small, so
a change in the program shows above the noise of a new seed.
"""

from __future__ import annotations

import random

from check import reference
from gen import Inst, all_plus_off, gnp_edges, grid_edges, mixed, tree_edges

# Redraws allowed when a slot asks for a property (infeasible, a corank).
MAX_DRAWS = 5000


def infeasible_mixed(n: int, edges_fn, rng: random.Random) -> tuple[Inst, tuple[int, bool]]:
    """Mixed switches and random lamps, redrawn until the system is infeasible.

    Such an instance takes the CLI's infeasible path, which eliminates a
    second time through ``rank``.
    """
    for _ in range(MAX_DRAWS):
        inst = mixed(n, edges_fn(), rng)
        ref = reference(inst)
        if not ref[1]:
            return inst, ref
    raise RuntimeError(f"no infeasible mixed instance with n={n} in {MAX_DRAWS} draws")


def feasible_and_infeasible(n: int, edges_fn, rng: random.Random):
    """One all-'+'/all-off instance (feasible) and one infeasible mixed one."""
    plus = all_plus_off(n, edges_fn())
    yield plus, reference(plus)
    yield infeasible_mixed(n, edges_fn, rng)


def small(rng: random.Random):
    # n 8-24 x p in {0.2, 0.5, 0.8}, random switches and lamps, feasibility
    # left to chance: 51 (n, p) cells, 20 instances each.
    for _ in range(20):
        for n in range(8, 25):
            for p in (0.2, 0.5, 0.8):
                inst = mixed(n, gnp_edges(n, p, rng), rng)
                yield inst, reference(inst)


def odd_one_out(inst: Inst) -> tuple[Inst, tuple[int, bool]]:
    """One more (feasible) input, making a workload's input count odd.

    Every input repeats once per pass, so with an even count the median of
    all solve times falls between two inputs' groups of repeats: on the
    slowest repeat of one and the fastest of the other, which is noise.
    With an odd count it falls inside the middle input's repeats.
    """
    return inst, reference(inst)


def sparse(rng: random.Random):
    # Square grids and random recursive trees, each size once feasible
    # (all '+', lamps off) and once infeasible (mixed), and one more tree.
    # Sizes stay small enough that a 25 s run holds over a hundred solves at
    # today's O(n^2) elimination, so at least ten fall beyond the 90th
    # percentile.
    for side in (25, 30, 35):
        yield from feasible_and_infeasible(side * side, lambda: grid_edges(side, side), rng)
    for n in (800, 1200, 1600):
        yield from feasible_and_infeasible(n, lambda: tree_edges(n, rng), rng)
    yield odd_one_out(all_plus_off(1200, tree_edges(1200, rng)))


def gnp(rng: random.Random):
    # Constant-degree G(n, c/n), then dense G(n, 1/2); two feasible and two
    # infeasible instances per size, because random graphs of one size
    # differ in elimination cost by up to a third; and one more dense graph.
    for n, c in ((500, 5.0), (650, 6.0), (800, 7.5), (1000, 10.0)):
        for _ in range(2):
            yield from feasible_and_infeasible(n, lambda: gnp_edges(n, c / n, rng), rng)
    for n in (300, 450):
        for _ in range(2):
            yield from feasible_and_infeasible(n, lambda: gnp_edges(n, 0.5, rng), rng)
    yield odd_one_out(all_plus_off(375, gnp_edges(375, 0.5, rng)))


# Corank targets for the exact workload: one tree per corank 8..28 and four
# more at 20, so the 2**m Gray-code walk has a fixed cost per pass.  The
# five m = 20 trees are the slowest fifth of the 25 inputs, so the 90th
# percentile falls in the middle of their times, and the odd count puts the
# median inside one input's repeats (see odd_one_out).
EXACT_CORANKS = tuple(range(8, 29)) + (20,) * 4


def exact(rng: random.Random):
    # Random recursive trees, all '+', lamps off, redrawn until the corank
    # hits the slot's target; n rises with the target across 300-400.
    targets = sorted(EXACT_CORANKS)
    for k, m in enumerate(targets):
        n = 300 + 100 * k // (len(targets) - 1)
        for _ in range(MAX_DRAWS):
            inst = all_plus_off(n, tree_edges(n, rng))
            ref = reference(inst)
            if n - ref[0] == m:
                break
        else:
            raise RuntimeError(f"no tree with n={n} and corank {m} in {MAX_DRAWS} draws")
        yield inst, ref


class Workload:
    """A named input family, the solve flags it uses and why it exists."""

    def __init__(self, name: str, make, exact_limit: int, why: str) -> None:
        self.name = name
        self.make = make
        self.exact_limit = exact_limit
        self.why = why

    def inputs(self, seed: int) -> list[tuple[Inst, tuple[int, bool]]]:
        """The instances for ``seed`` with their reference (rank, feasible)."""
        return list(self.make(random.Random(f"{self.name}:{seed}")))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small",
            small,
            16,
            "tiny mixed instances: fixed per-call cost (argparse, file read, JSON) dominates",
        ),
        Workload(
            "sparse",
            sparse,
            16,
            "grids and trees, 6 of 13 infeasible: Gauss-Jordan elimination is ~97% of solve time",
        ),
        Workload(
            "gnp",
            gnp,
            16,
            "constant-degree and dense G(n,p), 12 of 25 infeasible: elimination with no locality",
        ),
        Workload(
            "exact",
            exact,
            20,
            "trees with coranks 8-28 and --exact-limit 20: the Gray-code exact walk dominates",
        ),
    )
}

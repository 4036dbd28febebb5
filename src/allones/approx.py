"""Approximate minimum press sets via the grouped-echelon greedy.

The pipeline: solve the instance's GF(2) system, column-reduce the null
basis and group the vertices by their last nonzero column, then fix one
free coordinate per group by majority vote: the exact module's
part-order dynamic program with no coordinate kept live.  The press set
u is feasible with weight(u) <= r (system rank) and
2*weight(u) <= n + g1 - g0, hence weight(u) <= (n + opt)/2.  It comes
back as a ``lamps.Solution`` that holds u and the echelon decomposition,
which carries both bounds as ints: r and bound_mixed_x2 = n + g1 - g0.
``solve_approx`` runs every stage; ``solve_from_decomposition`` re-runs
the greedy alone on the sol.decomposition it returned, without a second
elimination.
"""

from __future__ import annotations

from .exact import _part_dp
from .gf2 import BitVec, EchelonDecomposition, column_echelon_grouped, solve
from .lamps import Instance, Solution


def greedy_assign(dec: EchelonDecomposition) -> BitVec:
    """The press set u = epsilon.z + gamma, one free coordinate per part
    fixed by majority vote in basis order; on part 0, u is gamma.

    This is ``exact._part_dp`` with nothing kept live: each step leaves one
    state, and z_k = 1 flips the whole of part k+1, so it wins exactly when
    it leaves fewer than half the part pressed.  Ties keep z_k = 0.
    """
    vecs = dec.basis.packed_rows
    return BitVec(dec.n, _part_dp(dec.gamma.bits, vecs, dec.parts, [0] * len(vecs))[1])


def solve_from_decomposition(dec: EchelonDecomposition) -> Solution:
    """Re-derive the press set from a cached decomposition (O(m) mask operations)."""
    return Solution(greedy_assign(dec), dec)


def solve_approx(inst: Instance) -> tuple[int, Solution | None]:
    """Feasibility check plus an approximate minimum press set.

    Returns (r, sol) with r the rank of the press-effect matrix; sol is
    None iff the instance has no solution at all.  Otherwise
    sol.decomposition is the decomposition the press set was read from,
    which carries m, g0 and g1 (so sol.decomposition.r == r) and re-derives
    the press set cheaply (see solve_from_decomposition); opt is left
    unset (see the exact module for oracles that can fill it in).
    """
    # the rows are already in the elimination's layout: nothing is mirrored
    r, res = solve(inst._packed_rows(), inst.n)
    if res is None:
        return r, None
    gamma, null_basis = res
    return r, solve_from_decomposition(column_echelon_grouped(null_basis, gamma))

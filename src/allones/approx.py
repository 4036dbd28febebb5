"""Approximate minimum press sets via the grouped-echelon greedy.

The pipeline: solve the instance's GF(2) system, column-reduce the null
basis and group the vertices by their last nonzero column, then fix one
free coordinate per group by majority vote.  The returned press set u is
guaranteed feasible with weight(u) <= r (system rank) and
2*weight(u) <= n + g1 - g0, hence weight(u) <= (n + opt)/2.  It comes
back as a ``lamps.Solution`` that holds u and the echelon decomposition,
which carries both bounds as ints: r and bound_mixed_x2 = n + g1 - g0.
``solve_approx`` runs every stage; ``solve_from_decomposition`` re-runs
the greedy alone on the sol.decomposition it returned, without a second
elimination.
"""

from __future__ import annotations

from .gf2 import BitVec, EchelonDecomposition, column_echelon_grouped, solve
from .lamps import Instance, Solution


def greedy_assign(dec: EchelonDecomposition) -> tuple[BitVec, BitVec]:
    """Majority-vote free coordinates, one per part, in basis order.

    acc holds epsilon.z over the coordinates fixed so far.  Basis vector k
    is the last one that touches part k+1, so once z_k is fixed the press
    bits acc ^ gamma on that part are final: their count with z_k = 0 is the
    part's press weight, and z_k = 1 flips the whole part.  Ties keep
    z_k = 0.  Returns (z, u) with u = epsilon.z + gamma in vertex order;
    on part 0, u is gamma.
    """
    g = dec.gamma.bits
    parts = dec.parts
    acc = 0
    z = 0
    for k, vec in enumerate(dec.basis.packed_rows):
        part = parts[k + 1]
        if 2 * ((acc ^ g) & part).bit_count() > part.bit_count():
            z |= 1 << k
            acc ^= vec
    return BitVec(dec.m, z), BitVec(dec.n, acc ^ g)


def solve_from_decomposition(dec: EchelonDecomposition) -> Solution:
    """Re-derive the press set from a cached decomposition (O(m) mask operations)."""
    return Solution(greedy_assign(dec)[1], dec)


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

"""Approximate minimum press sets via the grouped-echelon greedy.

The pipeline: build the GF(2) system, solve it, column-reduce the null
basis and group the vertices by their last nonzero column, then fix one
free coordinate per group by majority vote.  The returned press set u is
guaranteed feasible with weight(u) <= r (system rank) and
2*weight(u) <= n + g1 - g0, hence weight(u) <= (n + opt)/2.
"""

from __future__ import annotations

from typing import Optional

from .gf2 import BitVec, EchelonDecomposition, column_echelon_grouped, solve
from .lamps import Certificate, Instance, Solution, build_system


def decompose(inst: Instance) -> tuple[int, Optional[EchelonDecomposition]]:
    """Heavy half of the solve: elimination plus grouped column echelon.

    Returns (r, dec) with r the rank of the press-effect matrix; dec is
    None iff the instance is infeasible.  dec can be reused to re-derive
    the press set cheaply (see solve_from_decomposition).
    """
    a, b = build_system(inst)
    r, res = solve(a, b)
    if res is None:
        return r, None
    gamma, null_basis = res
    return r, column_echelon_grouped(null_basis, gamma)


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


def compute_bounds(dec: EchelonDecomposition) -> tuple[int, int]:
    """Forced non-presses and presses over part 0: (g0, g1).

    Solution.bound_mixed turns them into the bound (n + g1 - g0)/2.
    """
    part0 = dec.parts[0]
    g1 = (dec.gamma.bits & part0).bit_count()
    return part0.bit_count() - g1, g1


def solve_from_decomposition(dec: EchelonDecomposition) -> Solution:
    """Re-derive the press set from a cached decomposition (O(m) mask operations)."""
    _, press = greedy_assign(dec)
    n, m = dec.n, dec.m
    g0, g1 = compute_bounds(dec)
    cert = Certificate(r=n - m, m=m, g0=g0, g1=g1)
    return Solution(press=press, weight=press.weight, certificate=cert, decomposition=dec)


def solve_approx(inst: Instance) -> tuple[int, Optional[Solution]]:
    """Feasibility check plus an approximate minimum press set.

    Returns (r, sol) with r the rank of the press-effect matrix; sol is
    None iff the instance has no solution at all.  Otherwise its
    certificate carries r, m, g0, g1 (opt is left unset; see the exact
    module for oracles that can fill it in) and sol.decomposition is the
    decomposition it was read from.
    """
    r, dec = decompose(inst)
    return r, None if dec is None else solve_from_decomposition(dec)

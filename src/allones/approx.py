"""Approximate minimum press sets via the grouped-echelon greedy.

The pipeline: build the GF(2) system, solve it, column-reduce the null
basis with rows grouped by last nonzero column, then fix one free
coordinate per group by majority vote.  The returned press set u is
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
    """Majority-vote free coordinates, one per part, in part order.

    For part i the mismatch count cnt (rows whose accumulated prefix bit
    differs from gamma) is what the press weight in the part would be with
    z_i = 0; z_i = 1 flips the whole part.  Ties keep z_i = 0.  Returns
    (z, u_permuted) with u_permuted = epsilon.z + gamma_permuted; part 0 of
    u_permuted is gamma_permuted verbatim.
    """
    rows = dec.epsilon.packed_rows
    g = dec.gamma_permuted.bits
    parts = dec.parts
    m = dec.m
    z = 0
    u = g & ((1 << parts[0]) - 1)
    for i in range(1, m + 1):
        lo, hi = parts[i - 1], parts[i]
        # prefix bit for row j is parity(row & z): z only holds bits < i-1
        # here, and row bits >= i are clear, so each packed row is read once
        mis = 0
        for j in range(lo, hi):
            if ((rows[j] & z).bit_count() & 1) != ((g >> j) & 1):
                mis |= 1 << j
        cnt = mis.bit_count()
        if 2 * cnt <= hi - lo:
            u |= mis
        else:
            z |= 1 << (i - 1)
            u |= ~mis & ((1 << hi) - (1 << lo))
    return BitVec(m, z), BitVec(dec.n, u)


def unpermute(dec: EchelonDecomposition, u_permuted: BitVec) -> BitVec:
    """Map a grouped-order vector back to original vertex order."""
    return dec.perm.unapply(u_permuted)


def compute_bounds(dec: EchelonDecomposition) -> tuple[int, int]:
    """Forced non-presses and presses over part 0: (g0, g1).

    Solution.bound_mixed turns them into the bound (n + g1 - g0)/2.
    """
    k0 = dec.parts[0]
    g1 = (dec.gamma_permuted.bits & ((1 << k0) - 1)).bit_count()
    return k0 - g1, g1


def solve_from_decomposition(dec: EchelonDecomposition) -> Solution:
    """Re-derive the press set from a cached decomposition (O(mn) part)."""
    z, u_permuted = greedy_assign(dec)
    press = unpermute(dec, u_permuted)
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

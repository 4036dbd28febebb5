"""Exact minimum press sets by exhaustive enumeration.

Two independent routes: one walks the affine solution set of the linear
system (2**m candidates), the other tries every press pattern outright
(2**n candidates) and never touches the algebra.  Both use Gray-code
order so each step is a single XOR plus a popcount.
"""

from __future__ import annotations

from typing import Optional

from .gf2 import BitMat, BitVec
from .lamps import Instance

NULLSPACE_LIMIT = 24
PRESS_LIMIT = 20


def _lex_less(a: int, b: int) -> bool:
    """True if packed vector a precedes b lexicographically (bit 0 first)."""
    d = a ^ b
    return d != 0 and a & (d & -d) == 0


def exact_by_nullspace(
    gamma: BitVec, null_basis: BitMat, limit: int = NULLSPACE_LIMIT
) -> Optional[tuple[int, BitVec]]:
    """Minimum-weight vector of the affine set gamma + span(null_basis rows).

    null_basis is m x n, one basis vector per row, as gf2.solve returns it
    and EchelonDecomposition.basis stores it; pass either with its gamma to
    get the minimum-weight solution of a.u = b.  Enumerates all 2**m
    combinations of the basis vectors in Gray-code order.  Returns
    (opt, argmin) where ties are broken by the lexicographically smallest
    combination vector; returns None when m exceeds ``limit``.
    """
    if gamma.n != null_basis.cols:
        raise ValueError(f"gamma length {gamma.n} does not match {null_basis.cols} columns")
    m = null_basis.rows
    if m > limit:
        return None
    vecs = null_basis.packed_rows
    cur = gamma.bits
    best_w = cur.bit_count()
    best_x = 0
    best_u = cur
    x = 0
    for k in range(1, 1 << m):
        j = (k & -k).bit_length() - 1
        x ^= 1 << j
        cur ^= vecs[j]
        w = cur.bit_count()
        if w < best_w or (w == best_w and _lex_less(x, best_x)):
            best_w, best_x, best_u = w, x, cur
    return best_w, BitVec(gamma.n, best_u)


def exact_by_press_enumeration(
    inst: Instance, limit: int = PRESS_LIMIT
) -> Optional[tuple[int, BitVec]]:
    """Minimum press set by trying all 2**n press patterns.

    Pure toggle arithmetic, no linear algebra.  Returns (opt, argmin) with
    ties broken by the lexicographically smallest press vector, or None
    when no pattern lights every lamp.  Raises ValueError when n exceeds
    ``limit``.
    """
    n = inst.n
    if n > limit:
        raise ValueError(f"{n} vertices exceed the press enumeration limit {limit}")
    masks = inst.toggle_masks()
    target = (1 << n) - 1
    state = inst.initially_on.bits
    press = 0
    best: Optional[tuple[int, int]] = None
    if state == target:
        best = (0, 0)
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        press ^= 1 << j
        state ^= masks[j]
        if state == target:
            w = press.bit_count()
            if best is None or w < best[0] or (w == best[0] and _lex_less(press, best[1])):
                best = (w, press)
    if best is None:
        return None
    return best[0], BitVec(n, best[1])

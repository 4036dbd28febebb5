"""Exact minimum press sets.

Two independent routes.  ``exact_by_nullspace`` minimises over the affine
solution set of the linear system: by a dynamic program in part order
when the basis is narrow, otherwise by walking all 2**m combinations.
``exact_by_press_enumeration`` tries every press pattern outright (2**n
candidates) and never touches the algebra.  Both walks use Gray-code
order so each step is a single XOR plus a popcount.

Every combination vector z and press vector here has k coordinates, and
coordinate j sits at bit k-1-j.  Of two such vectors of equal weight the
lexicographically smaller, coordinate 0 first, is then the smaller int,
and that is how every search breaks ties.
"""

from __future__ import annotations

from .gf2 import BitMat, BitVec, EchelonDecomposition
from .lamps import Instance, build_system

NULLSPACE_LIMIT = 24
PRESS_LIMIT = 20
# One transition of the part-order DP costs about this many Gray-walk steps.
DP_STEP_COST = 4


def _live_masks(vecs: tuple[int, ...], parts: tuple[int, ...]) -> list[int]:
    """Mask k holds the z_j, j <= k, that some part after k+1 still reads."""
    m = len(vecs)
    live = [0] * m
    for j, vec in enumerate(vecs):
        # z_j stays live up to the last part its vector touches
        last = next((k for k in range(m - 1, j, -1) if vec & parts[k + 1]), j)
        for k in range(j, last):
            live[k] |= 1 << (m - 1 - j)
    return live


def _dp_transitions(live: list[int]) -> int:
    """The DP's transition count: two per state entering each step."""
    total, width = 0, 0
    for mask in live:
        total += 2 << width
        width = mask.bit_count()
    return total


def _part_dp(
    gamma: int, vecs: tuple[int, ...], parts: tuple[int, ...], live: list[int]
) -> tuple[int, int]:
    """(opt, argmin) by a dynamic program over the parts in order.

    Step k fixes z_k; the press bits of part k+1 then depend only on
    z_0..z_k, so each step adds that part's weight.  Part k+1 lies inside
    vector k, so z_k = 1 flips the whole part: w pressed bits of it under
    z_k = 0 become size - w.  A state keeps the z's that later parts still
    read, as ``z & live[k]``, and maps it to (cost, z, acc) with acc the
    XOR of the chosen vectors.
    States with one key share every completion, so the one with the
    smaller (cost, z) also gives the smaller full vector: ties go to the
    lexicographically smallest combination, as in the walk.  With every
    mask 0 one state is left per step, and this is the greedy
    (``approx.greedy_assign``).
    """
    states = {0: ((gamma & parts[0]).bit_count(), 0, 0)}
    bit = 1 << len(vecs)
    for vec, part, keep in zip(vecs, parts[1:], live):
        bit >>= 1
        nxt: dict[int, tuple[int, int, int]] = {}
        size = part.bit_count()
        for cost, z, acc in states.values():
            w = ((acc ^ gamma) & part).bit_count()
            for cand in ((cost + w, z, acc), (cost + size - w, z | bit, acc ^ vec)):
                key = cand[1] & keep
                old = nxt.get(key)
                if old is None or cand < old:
                    nxt[key] = cand
        states = nxt
    # nothing is live after the last step: one state is left
    cost, _, acc = states[0]
    return cost, gamma ^ acc


def _gray_walk(gamma: int, vecs: tuple[int, ...]) -> tuple[int, int]:
    """(opt, argmin) by visiting all 2**m combinations in Gray-code order."""
    m = len(vecs)
    top = (1 << m) >> 1
    cur = gamma
    best_w = cur.bit_count()
    best_x = 0
    best_u = cur
    x = 0
    for k in range(1, 1 << m):
        j = (k & -k).bit_length() - 1
        x ^= top >> j
        cur ^= vecs[j]
        w = cur.bit_count()
        if w < best_w or (w == best_w and x < best_x):
            best_w, best_x, best_u = w, x, cur
    return best_w, best_u


def exact_by_nullspace(gamma: BitVec, null_basis: BitMat) -> tuple[int, BitVec] | None:
    """Minimum-weight vector of the affine set gamma + span(null_basis rows).

    null_basis is m x n, one basis vector per row, as gf2.solve returns it
    and EchelonDecomposition.basis stores it; pass either with its gamma to
    get the minimum-weight solution of a.u = b.  Returns (opt, argmin)
    where ties are broken by the lexicographically smallest combination
    vector; returns None when m exceeds NULLSPACE_LIMIT, and raises
    ValueError when gamma's length is not the basis width.

    Grouping the vertices by the last basis vector that touches them
    (``EchelonDecomposition.parts``) makes a chain, which ``_part_dp``
    minimises in a sum over the parts of 2**(live width + 1) transitions,
    the live width being the number of z's that later parts still read.
    The 2**m Gray-code walk runs instead when DP_STEP_COST times that sum
    is at least 2**m: wide bases (all-'+' grids) and tiny m.  Narrow ones
    (random trees) take the DP.  Both give the same answer.
    """
    # EchelonDecomposition rejects a gamma of another width
    parts = EchelonDecomposition(null_basis, gamma).parts
    m = null_basis.rows
    if m > NULLSPACE_LIMIT:
        return None
    vecs = null_basis.packed_rows
    live = _live_masks(vecs, parts)
    if DP_STEP_COST * _dp_transitions(live) >= 1 << m:
        opt, argmin = _gray_walk(gamma.bits, vecs)
    else:
        opt, argmin = _part_dp(gamma.bits, vecs, parts, live)
    return opt, BitVec(gamma.n, argmin)


def exact_by_press_enumeration(inst: Instance) -> tuple[int, BitVec] | None:
    """Minimum press set by trying all 2**n press patterns.

    Pure toggle arithmetic, no linear algebra.  Returns (opt, argmin) with
    ties broken by the lexicographically smallest press vector, or None
    when no pattern lights every lamp.  Raises ValueError when n exceeds
    PRESS_LIMIT.
    """
    n = inst.n
    if n > PRESS_LIMIT:
        raise ValueError(f"{n} vertices exceed the press enumeration limit {PRESS_LIMIT}")
    masks = build_system(inst)[0].packed_rows
    target = (1 << n) - 1
    top = 1 << (n - 1)
    state = inst.initially_on.bits
    press = 0
    best: tuple[int, int] | None = None
    if state == target:
        best = (0, 0)
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        press ^= top >> j
        state ^= masks[j]
        if state == target:
            cand = (press.bit_count(), press)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    return best[0], BitVec.from01(format(best[1], f"0{n}b"))

"""Output checker for ``allones solve --output json``, independent of ``allones``.

The reference facts (rank and feasibility) come from the benchmark's own
elimination, computed once per input.  Press sets are replayed on the
benchmark's own edge lists.  Nothing here runs inside a timed region.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import Inst

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 2


def toggle_masks(inst: Inst) -> list[int]:
    """Row v = the lamps pressing v toggles: neighbours, plus v for '+'."""
    masks = [(1 << v) if s == "+" else 0 for v, s in enumerate(inst.switches)]
    for i, j in inst.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def reference(inst: Inst) -> tuple[int, bool]:
    """(rank of A, whether A.u = b is solvable) over GF(2), b = lamps off.

    Rows of the augmented system [A | b] go into a basis keyed by their
    lowest set bit; the b bit sits above every column, so a row that
    reduces to the b bit alone is the contradiction 0 = 1.
    """
    n = inst.n
    on = inst.on
    basis: dict[int, int] = {}
    feasible = True
    for v, row in enumerate(toggle_masks(inst)):
        if on[v] == "0":
            row |= 1 << n
        while row:
            low = (row & -row).bit_length() - 1
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = row
                break
            row ^= pivot
    rank = len(basis)
    if n in basis:
        feasible = False
        rank -= 1
    return rank, feasible


def check_answer(
    inst: Inst, ref: tuple[int, bool], exact_limit: int, rc: object, out: str
) -> tuple[list[str], dict | None]:
    """Problems with one CLI answer (empty when it is correct), plus the payload."""
    try:
        ans = json.loads(out)
    except ValueError:
        return [f"exit {rc}, stdout is not JSON: {out[:80]!r}"], None
    if not isinstance(ans, dict) or not isinstance(ans.get("feasible"), bool):
        return [f"no boolean 'feasible' in {out[:80]!r}"], None
    n = inst.n
    rank, feasible = ref
    problems = []
    want_rc = EXIT_FEASIBLE if ans["feasible"] else EXIT_INFEASIBLE
    if rc != want_rc:
        problems.append(f"exit code {rc} but feasible={ans['feasible']}")
    if ans["feasible"] != feasible:
        problems.append(f"feasible={ans['feasible']}, reference says {feasible}")
    r, m = ans.get("r"), ans.get("m")
    if r != rank:
        problems.append(f"r={r}, reference rank {rank}")
    if not isinstance(r, int) or not isinstance(m, int) or r + m != n:
        problems.append(f"r + m = {r} + {m} != n = {n}")
    if not ans["feasible"] or problems:
        return problems, ans
    press = ans.get("press")
    sol, g0, g1 = ans.get("sol"), ans.get("g0"), ans.get("g1")
    if not isinstance(press, list) or not all(isinstance(p, int) and 0 <= p < n for p in press):
        return problems + [f"press is not a list of vertices: {str(press)[:80]}"], ans
    if len(set(press)) != len(press):
        problems.append("press lists a vertex twice")
    if sol != len(press):
        problems.append(f"sol={sol} but {len(press)} presses")
    if not all(isinstance(x, int) for x in (sol, g0, g1)):
        return problems + ["sol, g0 or g1 is not an integer"], ans
    if sol > r:
        problems.append(f"sol={sol} > r={r}")
    if 2 * sol > n + g1 - g0:
        problems.append(f"2*sol={2 * sol} > n + g1 - g0 = {n + g1 - g0}")
    if ans.get("boundRank") != r:
        problems.append(f"boundRank={ans.get('boundRank')} != r={r}")
    mixed = Fraction(n + g1 - g0, 2)
    if (ans.get("boundMixedNumerator"), ans.get("boundMixedDenominator")) != (
        mixed.numerator,
        mixed.denominator,
    ):
        problems.append("boundMixed is not (n + g1 - g0)/2")
    opt = ans.get("opt")
    if (opt is not None) != (m <= exact_limit):
        problems.append(f"opt={opt} with m={m} and exact limit {exact_limit}")
    if opt is not None and not (isinstance(opt, int) and g1 <= opt <= sol):
        problems.append(f"opt={opt} outside [g1={g1}, sol={sol}]")
    state = int(inst.on[::-1], 2)
    masks = toggle_masks(inst)
    for v in press:
        state ^= masks[v]
    if state != (1 << n) - 1:
        problems.append(f"{n - state.bit_count()} lamps still off after the presses")
    return problems, ans

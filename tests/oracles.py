"""Independent dense GF(2) oracles used to derive and cross-check fixtures.

Everything here is deliberately naive and shares no code with the package:
numpy uint8 Gauss-Jordan for the algebra, list-based toggle simulation and
exhaustive subset search for the combinatorics, and a tree dynamic program
with no linear algebra at all for forests of any size.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Optional, Sequence, Tuple

import numpy as np


def rref_f2(m: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(2) plus the pivot column list."""
    a = (np.asarray(m) % 2).astype(np.uint8).copy()
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        for i in others:
            if i != r:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def row_echelon_f2(m: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Row echelon form over GF(2), not reduced, plus the pivot column list.

    Column by column, the first row at or below r with a 1 in column c is
    swapped up to become pivot row r and added to the rows below r that
    have a 1 there; rows above r are never touched.
    """
    a = (np.asarray(m) % 2).astype(np.uint8).copy()
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        below = r + 1 + np.nonzero(a[r + 1:, c])[0]
        a[below] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def rank_f2(m: np.ndarray) -> int:
    return len(rref_f2(m)[1])


def solve_f2(
    a: np.ndarray, b: np.ndarray
) -> Optional[Tuple[np.ndarray, List[np.ndarray]]]:
    """Particular solution (free vars zero) and null-space basis, or None."""
    a = (np.asarray(a) % 2).astype(np.uint8)
    b = (np.asarray(b) % 2).astype(np.uint8).reshape(-1)
    nrows, ncols = a.shape
    if b.shape[0] != nrows:
        raise ValueError("dimension mismatch")
    aug, pivots = rref_f2(np.concatenate([a, b[:, None]], axis=1))
    pivots = [c for c in pivots if c < ncols]
    # a zero lhs row with rhs 1 marks inconsistency
    for row in aug:
        if not row[:ncols].any() and row[ncols]:
            return None
    x0 = np.zeros(ncols, dtype=np.uint8)
    for i, c in enumerate(pivots):
        x0[c] = aug[i, ncols]
    basis: List[np.ndarray] = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = np.zeros(ncols, dtype=np.uint8)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = aug[i, f]
        basis.append(v)
    return x0, basis


def min_weight_solution_f2(
    a: np.ndarray, b: np.ndarray
) -> Optional[Tuple[int, np.ndarray]]:
    """Minimum-weight solution of a·x = b by enumerating the null space."""
    res = solve_f2(a, b)
    if res is None:
        return None
    x0, basis = res
    best = x0
    best_w = int(x0.sum())
    for r in range(1, len(basis) + 1):
        for combo in combinations(range(len(basis)), r):
            cand = x0.copy()
            for k in combo:
                cand ^= basis[k]
            w = int(cand.sum())
            if w < best_w:
                best, best_w = cand, w
    return best_w, best


def grid_edges(w: int, h: int) -> List[Tuple[int, int]]:
    """4-neighbor grid, vertices numbered row-major."""
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    return edges


def system_from_graph(
    n: int,
    edges: Sequence[Tuple[int, int]],
    sigma_plus: Sequence[bool],
    on: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Press-effect matrix and target vector (lamps that must flip)."""
    a = np.zeros((n, n), dtype=np.uint8)
    for i, j in edges:
        a[i, j] = a[j, i] = 1
    for v in range(n):
        if sigma_plus[v]:
            a[v, v] = 1
    b = np.array([0 if on[v] else 1 for v in range(n)], dtype=np.uint8)
    return a, b


def simulate(
    n: int,
    edges: Sequence[Tuple[int, int]],
    sigma_plus: Sequence[bool],
    on: Sequence[int],
    press: Sequence[int],
) -> List[int]:
    """Toggle-by-toggle lamp simulation; returns the final 0/1 states."""
    state = list(on)
    neigh = [[] for _ in range(n)]
    for i, j in edges:
        neigh[i].append(j)
        neigh[j].append(i)
    for v in range(n):
        if press[v]:
            if sigma_plus[v]:
                state[v] ^= 1
            for u in neigh[v]:
                state[u] ^= 1
    return state


def brute_force_min_press(
    n: int,
    edges: Sequence[Tuple[int, int]],
    sigma_plus: Sequence[bool],
    on: Sequence[int],
) -> Optional[Tuple[int, List[int]]]:
    """Exhaustive search over all 2**n press patterns (n small)."""
    best = None
    for press in product((0, 1), repeat=n):
        if all(s == 1 for s in simulate(n, edges, sigma_plus, on, press)):
            w = sum(press)
            if best is None or w < best[0]:
                best = (w, list(press))
    return best


def forest_min_press(
    n: int,
    edges: Sequence[Tuple[int, int]],
    sigma_plus: Sequence[bool],
    on: Sequence[int],
) -> Optional[int]:
    """Minimum press count that lights every lamp of a forest, or None.

    The linear-time tree DP of Chen, Li, Wang & Zhang ("The minimum
    all-ones problem for trees", SIAM J. Comput. 33(2), 2004).  Each tree
    is rooted at its lowest vertex; cost[v][x][y] is the fewest presses in
    v's subtree when v's press is x and its parent's is y.  Lamp v ends on
    iff the presses of its children have parity
    1 ^ on[v] ^ (sigma_plus[v] & x) ^ y, so a two-entry knapsack over the
    children, keyed by that parity, gives both costs for each x.  Raises
    ValueError when the graph has a cycle.
    """
    neigh: List[List[int]] = [[] for _ in range(n)]
    for i, j in edges:
        neigh[i].append(j)
        neigh[j].append(i)
    inf = float("inf")
    parent = [-1] * n
    seen = [False] * n
    total = 0
    for root in range(n):
        if seen[root]:
            continue
        # iterative DFS: every vertex comes after its parent in order
        seen[root] = True
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in neigh[v]:
                if u == parent[v]:
                    continue
                if seen[u]:
                    raise ValueError("the graph has a cycle")
                seen[u] = True
                parent[u] = v
                stack.append(u)
        cost = {}
        for v in reversed(order):
            row = []
            for x in (0, 1):
                # best[p]: fewest presses in the children's subtrees with
                # their own presses of parity p
                best = [0, inf]
                for c in neigh[v]:
                    if c != parent[v]:
                        c0, c1 = cost[c][0][x], cost[c][1][x]
                        best = [min(best[0] + c0, best[1] + c1),
                                min(best[1] + c0, best[0] + c1)]
                need = 1 ^ on[v] ^ (sigma_plus[v] & x)
                row.append([x + best[need ^ y] for y in (0, 1)])
            cost[v] = row
        opt = min(cost[root][0][0], cost[root][1][0])
        if opt == inf:
            return None
        total += opt
    return total

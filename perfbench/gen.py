"""Seeded instance generators owned by the benchmark.

Nothing here imports ``allones``: the program under test only ever sees
the instance files these functions render.  Every generator draws from a
``random.Random`` passed in by the caller, so one workload seed pins every
instance of a run.
"""

from __future__ import annotations

import math
import random


class Inst:
    """One generated instance: vertex count, edge list, switches and lamps."""

    __slots__ = ("n", "edges", "switches", "on")

    def __init__(self, n: int, edges: list[tuple[int, int]], switches: str, on: str) -> None:
        self.n = n
        self.edges = edges
        self.switches = switches
        self.on = on

    def render(self) -> str:
        """The instance in the CLI's text format."""
        lines = [f"allones {self.n}", f"switches {self.switches}", f"on {self.on}"]
        lines.extend(f"e {i} {j}" for i, j in self.edges)
        return "\n".join(lines) + "\n"


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) edges (w, v), w < v, by geometric skipping.

    O(n + m) instead of one draw per vertex pair: the gap to the next
    present pair is geometric, so each edge costs one draw (Batagelj &
    Brandes, Phys. Rev. E 71, 036113, 2005).
    """
    if p <= 0.0:
        return []
    if p >= 1.0:
        return [(w, v) for v in range(1, n) for w in range(v)]
    edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def grid_edges(w: int, h: int) -> list[tuple[int, int]]:
    """w x h grid with 4-neighbourhood, vertices numbered row-major."""
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    return edges


def tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random recursive tree: vertex v >= 1 hangs off a uniform earlier vertex."""
    return [(rng.randrange(v), v) for v in range(1, n)]


def all_plus_off(n: int, edges: list[tuple[int, int]]) -> Inst:
    """Every switch '+', every lamp off: always feasible (A.u = 1 has a solution)."""
    return Inst(n, edges, "+" * n, "0" * n)


def mixed(n: int, edges: list[tuple[int, int]], rng: random.Random) -> Inst:
    """Uniform random switch types and lamp states."""
    sw = rng.getrandbits(n)
    on = rng.getrandbits(n)
    return Inst(
        n,
        edges,
        "".join("-" if (sw >> v) & 1 else "+" for v in range(n)),
        "".join("1" if (on >> v) & 1 else "0" for v in range(n)),
    )

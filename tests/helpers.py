"""Shared test helpers."""

from __future__ import annotations

import random
from typing import Sequence

from allones import BitMat, BitVec, Instance, Solution, SwitchType


def random_instance(rnd: random.Random, max_n: int = 64) -> Instance:
    """Random instance: edge density ~1/2, mixed switches, random states."""
    n = rnd.randint(1, max_n)
    edges = []
    for i in range(n - 1):
        row = rnd.getrandbits(n - i - 1)
        while row:
            low = row & -row
            edges.append((i, i + low.bit_length()))
            row ^= low
    switches = tuple(
        SwitchType.SIGMA if rnd.getrandbits(1) else SwitchType.SIGMA_PLUS
        for _ in range(n)
    )
    return Instance(n, edges, switches, BitVec(n, rnd.getrandbits(n)))


def answer(sol: Solution) -> tuple:
    """What two solves of one instance agree on: press, m, g0, g1 and opt."""
    dec = sol.decomposition
    return sol.press, dec.m, dec.g0, dec.g1, sol.opt


def mat_vec(m: BitMat, v: BitVec) -> BitVec:
    """Matrix-vector product over GF(2)."""
    if m.cols != v.n:
        raise ValueError(f"matrix has {m.cols} columns but vector length is {v.n}")
    out = 0
    vb = v.bits
    for i, rb in enumerate(m.packed_rows):
        if (rb & vb).bit_count() & 1:
            out |= 1 << i
    return BitVec(m.rows, out)


def bitmat(entries: Sequence[Sequence[int]]) -> BitMat:
    """Matrix of 0/1 rows: entries[i][c] is bit c of row i."""
    packed = [sum(v << c for c, v in enumerate(row)) for row in entries]
    return BitMat(len(entries), len(entries[0]), packed)

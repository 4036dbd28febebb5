"""Grouped column-echelon decomposition: structure and span checks."""

import random

import pytest

from allones.gf2 import (
    BitMat,
    BitVec,
    column_echelon_grouped,
    mat_vec,
    solve,
)


def affine_set(vecs, gamma_bits):
    """All values of gamma xor a subset of vecs, as packed ints."""
    out = {gamma_bits}
    for vec in vecs:
        out |= {v ^ vec for v in out}
    return out


def test_single_column_already_echelon():
    dec = column_echelon_grouped(BitMat(1, 2, [0b11]), BitVec.from01("10"))
    assert dec.basis == BitMat(1, 2, [0b11])
    assert dec.parts == (0, 0b11)
    assert dec.gamma == BitVec.from01("10")
    assert all(dec.parts[1:])


def test_empty_basis_is_all_part_zero():
    gamma = BitVec.from01("011")
    dec = column_echelon_grouped(BitMat(0, 3, []), gamma)
    assert dec.m == 0
    assert dec.parts == (0b111,)
    assert dec.gamma == gamma
    assert all(dec.parts[1:])


def test_two_column_grouping():
    # basis vectors (1,1,0,0) and (1,1,1,1); the reduced pair spans the
    # same space with the second pivot strictly below the first
    basis = BitMat.from_lists([[1, 1, 0, 0], [1, 1, 1, 1]])
    gamma = BitVec.zeros(4)
    dec = column_echelon_grouped(basis, gamma)
    assert all(dec.parts[1:])
    assert dec.parts == (0, 0b0011, 0b1100)
    before = affine_set(basis.packed_rows, 0)
    assert affine_set(dec.basis.packed_rows, 0) == before


def test_rows_between_pivots_keep_their_group():
    # no basis vector touches vertex 1, so it alone is part 0; no vertex
    # moves
    basis = BitMat.from_lists([[1, 0, 1, 0], [0, 0, 1, 1]])
    dec = column_echelon_grouped(basis, BitVec.from01("0111"))
    assert all(dec.parts[1:])
    assert dec.parts == (0b0010, 0b0001, 0b1100)
    # gamma stays in vertex order
    assert dec.gamma == BitVec.from01("0111")


def test_rejects_column_rank_deficiency():
    with pytest.raises(ValueError):
        column_echelon_grouped(BitMat.from_lists([[1, 1], [1, 1]]), BitVec.zeros(2))


def test_rejects_gamma_length_mismatch():
    with pytest.raises(ValueError):
        column_echelon_grouped(BitMat(1, 2, [0b11]), BitVec.zeros(3))


def test_structure_and_span_preserved_on_random_systems():
    # the decomposition must parametrize the same affine solution set as
    # the raw (eta, gamma) pair, and part i must hold exactly the vertices
    # whose last echelon basis vector is i-1
    rnd = random.Random(424242)
    done = 0
    while done < 200:
        n = rnd.randint(1, 24)
        a = BitMat(n, n, [rnd.getrandbits(n) for _ in range(n)])
        b = mat_vec(a, BitVec(n, rnd.getrandbits(n)))
        _, (gamma, eta) = solve(a, b)
        dec = column_echelon_grouped(eta, gamma)
        assert all(dec.parts[1:])
        assert dec.gamma == gamma
        vecs = dec.basis.packed_rows
        last = [max((k + 1 for k, vec in enumerate(vecs) if vec >> v & 1), default=0)
                for v in range(n)]
        assert [sum(1 << v for v in range(n) if last[v] == i)
                for i in range(dec.m + 1)] == list(dec.parts)
        if eta.rows > 10:
            continue
        assert affine_set(eta.packed_rows, gamma.bits) == affine_set(vecs, gamma.bits)
        done += 1

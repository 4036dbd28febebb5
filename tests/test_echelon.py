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


def affine_set(columns, gamma_bits):
    """All values of gamma xor a column subset, as packed ints."""
    out = {gamma_bits}
    for col in columns:
        out |= {v ^ col for v in out}
    return out


def test_single_column_already_echelon():
    dec = column_echelon_grouped(BitMat(2, 1, [1, 1]), BitVec.from01("10"))
    assert dec.columns == (0b11,)
    assert dec.parts == (0, 0b11)
    assert dec.gamma == BitVec.from01("10")
    dec.check()


def test_empty_basis_is_all_part_zero():
    gamma = BitVec.from01("011")
    dec = column_echelon_grouped(BitMat(3, 0, [0, 0, 0]), gamma)
    assert dec.m == 0
    assert dec.parts == (0b111,)
    assert dec.gamma == gamma
    dec.check()


def test_two_column_grouping():
    # columns (1,1,0,0) and (1,1,1,1); the reduced pair spans the same
    # space with the second pivot strictly below the first
    basis = BitMat.from_lists([[1, 1], [1, 1], [0, 1], [0, 1]])
    gamma = BitVec.zeros(4)
    dec = column_echelon_grouped(basis, gamma)
    dec.check()
    assert dec.parts == (0, 0b0011, 0b1100)
    before = affine_set([basis.column(j).bits for j in range(2)], 0)
    assert affine_set(dec.columns, 0) == before


def test_rows_between_pivots_keep_their_group():
    # vertex 1 has an all-zero row, so it alone is part 0; no row moves
    basis = BitMat.from_lists([[1, 0], [0, 0], [1, 1], [0, 1]])
    dec = column_echelon_grouped(basis, BitVec.from01("0111"))
    dec.check()
    assert dec.parts == (0b0010, 0b0001, 0b1100)
    # gamma stays in vertex order
    assert dec.gamma == BitVec.from01("0111")


def test_rejects_column_rank_deficiency():
    with pytest.raises(ValueError):
        column_echelon_grouped(BitMat.from_lists([[1, 1], [1, 1]]), BitVec.zeros(2))


def test_rejects_gamma_length_mismatch():
    with pytest.raises(ValueError):
        column_echelon_grouped(BitMat(2, 1, [1, 1]), BitVec.zeros(3))


def test_structure_and_span_preserved_on_random_systems():
    # the decomposition must parametrize the same affine solution set as
    # the raw (eta, gamma) pair, and part i must hold exactly the vertices
    # whose epsilon row has its last set bit at column i-1
    rnd = random.Random(424242)
    done = 0
    while done < 200:
        n = rnd.randint(1, 24)
        a = BitMat(n, n, [rnd.getrandbits(n) for _ in range(n)])
        b = mat_vec(a, BitVec(n, rnd.getrandbits(n)))
        _, (gamma, eta) = solve(a, b)
        dec = column_echelon_grouped(eta, gamma)
        dec.check()
        assert dec.gamma == gamma
        rows = dec.epsilon().packed_rows
        assert [sum(1 << v for v in range(n) if rows[v].bit_length() == i)
                for i in range(dec.m + 1)] == list(dec.parts)
        if eta.cols > 10:
            continue
        eta_cols = [eta.column(j).bits for j in range(eta.cols)]
        assert affine_set(eta_cols, gamma.bits) == affine_set(dec.columns, gamma.bits)
        done += 1

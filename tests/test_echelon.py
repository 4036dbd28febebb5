"""Grouped column-echelon decomposition: structure, span and weight checks."""

import random

import pytest

from allones.gf2 import (
    BitMat,
    BitVec,
    RowPermutation,
    column_echelon_grouped,
    mat_vec,
    rank,
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
    assert dec.epsilon.packed_rows == (1, 1)
    assert dec.parts == (0, 2)
    assert dec.perm == RowPermutation.identity(2)
    assert dec.gamma_permuted == BitVec.from01("10")
    dec.check()


def test_empty_basis_is_all_part_zero():
    gamma = BitVec.from01("011")
    dec = column_echelon_grouped(BitMat(3, 0, [0, 0, 0]), gamma)
    assert dec.m == 0
    assert dec.parts == (3,)
    assert dec.gamma_permuted == gamma
    dec.check()


def test_two_column_grouping():
    # columns (1,1,0,0) and (1,1,1,1); the reduced pair spans the same
    # space with the second pivot strictly below the first
    basis = BitMat.from_lists([[1, 1], [1, 1], [0, 1], [0, 1]])
    gamma = BitVec.zeros(4)
    dec = column_echelon_grouped(basis, gamma)
    dec.check()
    assert dec.parts == (0, 2, 4)
    eps_cols = [dec.epsilon.column(j).bits for j in range(2)]
    before = affine_set([basis.column(j).bits for j in range(2)], 0)
    after = {dec.perm.unapply(BitVec(4, v)).bits for v in affine_set(eps_cols, 0)}
    assert before == after


def test_rows_between_pivots_keep_their_group():
    # row 1 is all-zero and must migrate into part 0 ahead of the rest
    basis = BitMat.from_lists([[1, 0], [0, 0], [1, 1], [0, 1]])
    dec = column_echelon_grouped(basis, BitVec.from01("0111"))
    dec.check()
    assert dec.parts[0] == 1
    assert dec.perm.forward[1] == 0
    # gamma travels with its rows
    assert dec.gamma_permuted == dec.perm.apply(BitVec.from01("0111"))


def test_rejects_column_rank_deficiency():
    with pytest.raises(ValueError):
        column_echelon_grouped(BitMat.from_lists([[1, 1], [1, 1]]), BitVec.zeros(2))


def test_rejects_gamma_length_mismatch():
    with pytest.raises(ValueError):
        column_echelon_grouped(BitMat(2, 1, [1, 1]), BitVec.zeros(3))


def test_structure_and_span_preserved_on_random_systems():
    # the decomposition must parametrize the same affine solution set, with
    # the same weight multiset, as the raw (eta, gamma) pair
    rnd = random.Random(424242)
    done = 0
    while done < 200:
        n = rnd.randint(1, 24)
        a = BitMat(n, n, [rnd.getrandbits(n) for _ in range(n)])
        b = mat_vec(a, BitVec(n, rnd.getrandbits(n)))
        _, (gamma, eta) = solve(a, b)
        dec = column_echelon_grouped(eta, gamma)
        dec.check()
        assert dec.parts[-1] == n
        assert dec.gamma_permuted == dec.perm.apply(gamma)
        if eta.cols > 10:
            continue
        eta_cols = [eta.column(j).bits for j in range(eta.cols)]
        eps_cols = [dec.epsilon.column(j).bits for j in range(dec.m)]
        before = affine_set(eta_cols, gamma.bits)
        after_perm = affine_set(eps_cols, dec.gamma_permuted.bits)
        after = {dec.perm.unapply(BitVec(n, v)).bits for v in after_perm}
        assert before == after
        assert sorted(v.bit_count() for v in before) == sorted(
            v.bit_count() for v in after_perm
        )
        done += 1


def test_row_permutation_contracts():
    rnd = random.Random(3)
    with pytest.raises(ValueError):
        RowPermutation([0, 0, 2])
    for _ in range(50):
        n = rnd.randint(1, 32)
        fwd = list(range(n))
        rnd.shuffle(fwd)
        perm = RowPermutation(fwd)
        v = BitVec(n, rnd.getrandbits(n))
        assert perm.unapply(perm.apply(v)) == v
        assert perm.apply(perm.unapply(v)) == v

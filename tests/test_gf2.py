"""Elimination, solving and packed-representation checks for the GF(2) core."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from allones.gf2 import BitMat, BitVec, mat_vec, solve


def _matches_oracle(a, b):
    """Check solve's (r, gamma, null basis) against the dense numpy oracle;
    returns solve's result."""
    entries = np.array(
        [[(rb >> c) & 1 for c in range(a.cols)] for rb in a.packed_rows],
        dtype=np.uint8,
    ).reshape(a.rows, a.cols)
    bvals = np.array([b[i] for i in range(b.n)], dtype=np.uint8)
    r, mine = solve(a, b)
    assert r == oracles.rank_f2(entries)
    theirs = oracles.solve_f2(entries, bvals)
    assert (mine is None) == (theirs is None)
    if mine is not None:
        # both read gamma and the basis off the unique RREF
        gamma, basis = mine
        x0, obasis = theirs
        assert gamma == BitVec.from_bits(int(v) for v in x0)
        assert (basis.rows, basis.cols) == (len(obasis), a.cols)
        assert [BitVec(basis.cols, vec) for vec in basis.packed_rows] == [
            BitVec.from_bits(int(v) for v in col) for col in obasis
        ]
    return r, mine


def _graph_system(n, edges, sigma_plus, on):
    """The oracle's press-effect system of a graph, packed."""
    a, b = oracles.system_from_graph(n, edges, sigma_plus, on)
    return BitMat.from_lists(a.tolist()), BitVec.from_bits(int(v) for v in b)


@st.composite
def sparse_systems(draw, max_dim=24):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = st.lists(st.integers(0, cols - 1), max_size=3) if cols else st.just([])
    packed = [
        sum(1 << c for c in set(row))
        for row in draw(st.lists(entries, min_size=rows, max_size=rows))
    ]
    return BitMat(rows, cols, packed), BitVec(rows, draw(st.integers(0, (1 << rows) - 1)))


class TestBitVec:
    def test_padding_is_canonical(self):
        with pytest.raises(ValueError):
            BitVec(3, 0b1000)
        with pytest.raises(ValueError):
            BitVec(0, 1)
        assert BitVec(3, 0b101).bits == 0b101

    def test_weight(self):
        assert BitVec.zeros(10).weight == 0
        assert BitVec.ones(10).weight == 10
        assert BitVec(5, 0b10110).weight == 3

    def test_from01_round_trip(self):
        v = BitVec.from01("010011")
        assert v.to01() == "010011"
        assert v.indices() == [1, 4, 5]
        assert BitVec.from01(v.to01()) == v

    def test_from_bits_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitVec.from_bits([0, 2, 1])

    def test_xor_and_indexing(self):
        a = BitVec.from01("1100")
        b = BitVec.from01("1010")
        assert (a ^ b).to01() == "0110"
        assert a[0] == 1 and a[2] == 0
        with pytest.raises(ValueError):
            a ^ BitVec.zeros(3)


class TestBitMat:
    def test_row_width_validation(self):
        with pytest.raises(ValueError):
            BitMat(2, 2, [0b11, 0b100])
        with pytest.raises(ValueError):
            BitMat(2, 2, [0b11])

    def test_identity_and_transpose(self):
        m = BitMat.from_lists([[1, 1, 0], [0, 1, 1]])
        assert m.transpose() == BitMat.from_lists([[1, 0], [1, 1], [0, 1]])
        assert BitMat.identity(4).transpose() == BitMat.identity(4)


def _rank(m):
    """GF(2) rank, as solve reports it for the always-consistent m.u = 0."""
    return solve(m, BitVec.zeros(m.rows))[0]


class TestRank:
    def test_identity(self):
        assert _rank(BitMat.identity(3)) == 3

    def test_all_ones(self):
        assert _rank(BitMat(3, 3, [0b111] * 3)) == 1

    def test_grid_5x5_sigma_plus(self):
        # classic 5x5 lights-out matrix; value cross-checked against the
        # dense numpy oracle
        a, _ = oracles.system_from_graph(
            25, oracles.grid_edges(5, 5), [True] * 25, [0] * 25
        )
        assert oracles.rank_f2(a) == 23
        m = BitMat.from_lists(a.tolist())
        assert _rank(m) == 23

    def test_does_not_mutate(self):
        m = BitMat.from_lists([[1, 1], [1, 1]])
        before = m.packed_rows
        _rank(m)
        assert m.packed_rows == before

    def test_matches_oracle_on_random_matrices(self):
        rnd = random.Random(7)
        for _ in range(100):
            rows = rnd.randint(1, 16)
            cols = rnd.randint(1, 16)
            entries = [[rnd.getrandbits(1) for _ in range(cols)] for _ in range(rows)]
            assert _rank(BitMat.from_lists(entries)) == oracles.rank_f2(entries)


class TestMatVec:
    def test_identity(self):
        v = BitVec.from01("1011")
        assert mat_vec(BitMat.identity(4), v) == v

    def test_equal_columns_cancel(self):
        m = BitMat.from_lists([[1, 1], [1, 1]])
        assert mat_vec(m, BitVec.from01("11")) == BitVec.zeros(2)

    def test_zero_matrix(self):
        assert mat_vec(BitMat.zeros(3, 5), BitVec.ones(5)) == BitVec.zeros(3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec(BitMat.identity(3), BitVec.zeros(4))


class TestSolve:
    def test_rank_one_system(self):
        a = BitMat.from_lists([[1, 1], [1, 1]])
        r, (gamma, basis) = solve(a, BitVec.from01("11"))
        assert r == 1
        assert gamma == BitVec.from01("10")
        assert basis == BitMat.from_lists([[1, 1]])
        assert mat_vec(a, gamma) == BitVec.from01("11")
        assert mat_vec(a, gamma ^ BitVec(2, basis.packed_rows[0])) == BitVec.from01("11")

    def test_identity_system(self):
        r, (gamma, basis) = solve(BitMat.identity(3), BitVec.from01("101"))
        assert r == 3
        assert gamma == BitVec.from01("101")
        assert basis.rows == 0

    def test_inconsistent(self):
        a = BitMat.from_lists([[0, 1], [0, 1]])
        assert solve(a, BitVec.from01("10")) == (1, None)

    def test_dimension_mismatch_is_not_infeasibility(self):
        with pytest.raises(ValueError):
            solve(BitMat.identity(3), BitVec.zeros(4))

    def test_soundness_on_random_systems(self):
        # consistent systems must come back with A.gamma = B and a null
        # basis of the right size whose vectors all lie in the kernel
        rnd = random.Random(20240810)
        checked = 0
        for trial in range(10_000):
            n = rnd.randint(1, 64)
            a = BitMat(n, n, [rnd.getrandbits(n) for _ in range(n)])
            if trial % 2:
                b = mat_vec(a, BitVec(n, rnd.getrandbits(n)))
            else:
                b = BitVec(n, rnd.getrandbits(n))
            r, res = solve(a, b)
            assert r == _rank(a)
            if trial % 2:
                assert res is not None, "a constructed-consistent system came back None"
            if res is None:
                continue
            gamma, basis = res
            assert mat_vec(a, gamma) == b
            assert basis.rows == n - r
            for vec in basis.packed_rows:
                assert mat_vec(a, BitVec(n, vec)) == BitVec.zeros(n)
            checked += 1
        assert checked >= 5000

    def test_completeness_by_exhaustion(self):
        # a consistent system has exactly 2**m solutions, and they are
        # exactly gamma xor the span of the null basis
        rnd = random.Random(99)
        for _ in range(300):
            n = rnd.randint(1, 12)
            rows = [rnd.getrandbits(n) for _ in range(n)]
            a = BitMat(n, n, rows)
            b_bits = rnd.getrandbits(n)
            b = BitVec(n, b_bits)
            found = {
                u
                for u in range(1 << n)
                if all(
                    ((rows[i] & u).bit_count() & 1) == ((b_bits >> i) & 1)
                    for i in range(n)
                )
            }
            _, res = solve(a, b)
            if res is None:
                assert not found
                continue
            gamma, basis = res
            span = {gamma.bits}
            for vec in basis.packed_rows:
                span |= {s ^ vec for s in span}
            assert len(found) == 1 << basis.rows
            assert span == found

    def test_agrees_with_dense_oracle(self):
        # the rank solve reports must match the dense oracle on consistent
        # and inconsistent systems alike
        rnd = random.Random(5)
        inconsistent = 0
        for _ in range(200):
            n = rnd.randint(1, 10)
            a = BitMat(n, n, [rnd.getrandbits(n) for _ in range(n)])
            _, mine = _matches_oracle(a, BitVec(n, rnd.getrandbits(n)))
            inconsistent += mine is None
        assert inconsistent >= 50

    @pytest.mark.parametrize("w, h, corank", [(4, 4, 4), (5, 5, 2)])
    def test_classic_grids_against_oracle(self, w, h, corank):
        n = w * h
        r, res = _matches_oracle(
            *_graph_system(n, oracles.grid_edges(w, h), [True] * n, [0] * n)
        )
        assert n - r == corank
        assert res is not None

    def test_graph_systems_against_oracle(self):
        # sparse structured systems: the keyed basis meets few rows per
        # insertion here, unlike the dense random systems above
        rnd = random.Random(11)
        graphs = [(w * h, oracles.grid_edges(w, h)) for w, h in
                  [(4, 4), (5, 5), (1, 9), (3, 8), (9, 9), (14, 14)]]
        for n in (1, 2, 7, 40, 120, 200):
            graphs.append((n, [(i, i + 1) for i in range(n - 1)]))
            graphs.append((n, [(rnd.randrange(v), v) for v in range(1, n)]))
            if n >= 3:
                graphs.append((n, [(i, (i + 1) % n) for i in range(n)]))
        inconsistent = 0
        for n, edges in graphs:
            for _ in range(3):
                sigma_plus = [bool(rnd.getrandbits(1)) for _ in range(n)]
                on = [rnd.getrandbits(1) for _ in range(n)]
                _, res = _matches_oracle(*_graph_system(n, edges, sigma_plus, on))
                inconsistent += res is None
        assert inconsistent >= 10

    def test_rectangular_against_oracle(self):
        rnd = random.Random(3)
        for rows, cols in [(30, 8), (8, 30), (50, 1), (1, 50), (17, 16), (16, 17)]:
            for density in (0.05, 0.3, 0.7):
                a = BitMat(rows, cols, [
                    sum(1 << c for c in range(cols) if rnd.random() < density)
                    for _ in range(rows)
                ])
                _matches_oracle(a, BitVec(rows, rnd.getrandbits(rows)))
                _matches_oracle(a, mat_vec(a, BitVec(cols, rnd.getrandbits(cols))))

    def test_edge_cases_against_oracle(self):
        # no unknowns: consistent exactly when b is zero
        assert _matches_oracle(BitMat(3, 0, [0] * 3), BitVec(3, 0)) == (
            0, (BitVec(0, 0), BitMat(0, 0, [])))
        assert _matches_oracle(BitMat(3, 0, [0] * 3), BitVec(3, 0b100)) == (0, None)
        # an all-zero a with a nonzero b has no solution
        assert _matches_oracle(BitMat.zeros(4, 5), BitVec(4, 0b0010)) == (0, None)
        r, (gamma, basis) = _matches_oracle(BitMat.zeros(4, 5), BitVec.zeros(4))
        assert (r, gamma, basis) == (0, BitVec.zeros(5), BitMat.identity(5))


@settings(deadline=None)
@given(sparse_systems())
def test_sparse_systems_match_oracle(system):
    _matches_oracle(*system)

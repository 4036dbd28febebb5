"""Elimination, solving and packed-representation checks for the GF(2) core."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from allones import gf2
from allones.gf2 import BitMat, BitVec, solve
from helpers import bitmat, mat_vec


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
        assert gamma == BitVec.from01("".join(map(str, x0)))
        assert (basis.rows, basis.cols) == (len(obasis), a.cols)
        assert [BitVec(basis.cols, vec) for vec in basis.packed_rows] == [
            BitVec.from01("".join(map(str, col))) for col in obasis
        ]
    return r, mine


def _graph_system(n, edges, sigma_plus, on):
    """The oracle's press-effect system of a graph, packed."""
    a, b = oracles.system_from_graph(n, edges, sigma_plus, on)
    return bitmat(a.tolist()), BitVec.from01("".join(map(str, b)))


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


@st.composite
def dense_systems(draw, max_dim=24):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(0, max_dim))
    packed = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMat(rows, cols, packed), BitVec(rows, draw(st.integers(0, (1 << rows) - 1)))


@st.composite
def bit_vectors(draw, max_n=2000):
    """(n, bits): empty, full or random, up to many machine words wide."""
    n = draw(st.integers(0, max_n))
    bits = draw(st.sampled_from([0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1))
    return n, bits


class TestBitVec:
    def test_padding_is_canonical(self):
        with pytest.raises(ValueError):
            BitVec(3, 0b1000)
        with pytest.raises(ValueError):
            BitVec(0, 1)
        assert BitVec(3, 0b101).bits == 0b101

    def test_weight(self):
        assert BitVec.zeros(10).weight == 0
        assert BitVec(10, (1 << 10) - 1).weight == 10
        assert BitVec(5, 0b10110).weight == 3

    def test_from01_round_trip(self):
        v = BitVec.from01("010011")
        assert v.to01() == "010011"
        assert v.indices() == [1, 4, 5]
        assert BitVec.from01(v.to01()) == v

    def test_from01_edges(self):
        assert BitVec.from01("") == BitVec(0)
        assert BitVec(0).to01() == ""
        assert BitVec.from01("0001") == BitVec(4, 0b1000)
        assert BitVec(4, 0b1000).to01() == "0001"
        # the first character that is not '0' or '1' is named, wherever it is
        for text, bad in (("01x1y", "x"), ("2", "2"), ("0 1", " "), ("01+", "+"), ("_1", "_")):
            with pytest.raises(ValueError) as exc:
                BitVec.from01(text)
            assert str(exc.value) == f"character {bad!r} is not '0' or '1'"

    def test_xor_and_indexing(self):
        a = BitVec.from01("1100")
        assert a[0] == 1 and a[2] == 0

    def test_negative_length_is_refused(self):
        with pytest.raises(ValueError, match="^negative length -1$"):
            BitVec(-1)

    @pytest.mark.parametrize("i", [-1, 4, 100])
    def test_index_out_of_range_is_refused(self, i):
        with pytest.raises(IndexError, match=f"^bit index {i} out of range for length 4$"):
            BitVec(4, 0b1111)[i]

    @settings(deadline=None)
    @given(bit_vectors())
    @example((0, 0))
    @example((2000, 0))
    @example((2000, (1 << 2000) - 1))
    def test_indices_match_a_bit_scan(self, vector):
        n, bits = vector
        assert BitVec(n, bits).indices() == [i for i in range(n) if bits >> i & 1]


class TestBitMat:
    def test_row_width_validation(self):
        with pytest.raises(ValueError):
            BitMat(2, 2, [0b11, 0b100])
        with pytest.raises(ValueError):
            BitMat(2, 2, [0b11])

    @pytest.mark.parametrize("rows, cols", [(-1, 2), (0, -1)])
    def test_negative_dimension_is_refused(self, rows, cols):
        with pytest.raises(ValueError, match="^negative dimension$"):
            BitMat(rows, cols, [])

    def test_hash_and_repr(self):
        a = BitMat(2, 3, [0b101, 0b011])
        assert hash(a) == hash(BitMat(2, 3, (0b101, 0b011)))
        assert len({a, BitMat(2, 3, [0b101, 0b011]), BitMat(2, 4, [0b101, 0b011])}) == 2
        assert repr(a) == "BitMat(2x3)"


def test_echelon_decomposition_repr():
    # vector 0 touches vertices 0 and 1; vertex 2 is in part 0
    dec = gf2.EchelonDecomposition(BitMat(1, 3, [0b011]), BitVec(3, 0b100))
    assert repr(dec) == "EchelonDecomposition(n=3, m=1, part_sizes=[1, 2])"


def _rank(m):
    """GF(2) rank, as solve reports it for the always-consistent m.u = 0."""
    return solve(m, BitVec.zeros(m.rows))[0]


class TestRank:
    def test_identity(self):
        assert _rank(BitMat(3, 3, [1 << i for i in range(3)])) == 3

    def test_all_ones(self):
        assert _rank(BitMat(3, 3, [0b111] * 3)) == 1

    def test_grid_5x5_sigma_plus(self):
        # classic 5x5 lights-out matrix; value cross-checked against the
        # dense numpy oracle
        a, _ = oracles.system_from_graph(
            25, oracles.grid_edges(5, 5), [True] * 25, [0] * 25
        )
        assert oracles.rank_f2(a) == 23
        assert _rank(bitmat(a.tolist())) == 23

    def test_does_not_mutate(self):
        m = bitmat([[1, 1], [1, 1]])
        before = m.packed_rows
        _rank(m)
        assert m.packed_rows == before

    def test_matches_oracle_on_random_matrices(self):
        rnd = random.Random(7)
        for _ in range(100):
            rows = rnd.randint(1, 16)
            cols = rnd.randint(1, 16)
            entries = [[rnd.getrandbits(1) for _ in range(cols)] for _ in range(rows)]
            assert _rank(bitmat(entries)) == oracles.rank_f2(entries)


class TestMatVec:
    def test_identity(self):
        v = BitVec.from01("1011")
        assert mat_vec(BitMat(4, 4, [1 << i for i in range(4)]), v) == v

    def test_equal_columns_cancel(self):
        m = bitmat([[1, 1], [1, 1]])
        assert mat_vec(m, BitVec.from01("11")) == BitVec.zeros(2)

    def test_zero_matrix(self):
        assert mat_vec(BitMat(3, 5, [0] * 3), BitVec(5, (1 << 5) - 1)) == BitVec.zeros(3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec(BitMat(3, 3, [1 << i for i in range(3)]), BitVec.zeros(4))


class TestSolve:
    def test_rank_one_system(self):
        a = bitmat([[1, 1], [1, 1]])
        r, (gamma, basis) = solve(a, BitVec.from01("11"))
        assert r == 1
        assert gamma == BitVec.from01("10")
        assert basis == bitmat([[1, 1]])
        assert mat_vec(a, gamma) == BitVec.from01("11")
        assert mat_vec(a, BitVec(2, gamma.bits ^ basis.packed_rows[0])) == BitVec.from01("11")

    def test_identity_system(self):
        eye = BitMat(3, 3, [1 << i for i in range(3)])
        r, (gamma, basis) = solve(eye, BitVec.from01("101"))
        assert r == 3
        assert gamma == BitVec.from01("101")
        assert basis.rows == 0

    def test_inconsistent(self):
        a = bitmat([[0, 1], [0, 1]])
        assert solve(a, BitVec.from01("10")) == (1, None)

    def test_dimension_mismatch_is_not_infeasibility(self):
        with pytest.raises(ValueError):
            solve(BitMat(3, 3, [1 << i for i in range(3)]), BitVec.zeros(4))

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

    @pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65])
    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_byte_boundary_widths_against_oracle(self, rows, cols):
        # solve packs each row byte by byte, so these widths put the last
        # column at either end of a byte, and b in a byte of its own or not
        rnd = random.Random(100 * rows + cols)
        for density in (0.1, 0.5, 1.0):
            a = BitMat(rows, cols, [
                sum(1 << c for c in range(cols) if rnd.random() < density)
                for _ in range(rows)
            ])
            _matches_oracle(a, BitVec(rows, rnd.getrandbits(rows)))
            _matches_oracle(a, BitVec(rows, (1 << rows) - 1))

    def test_edge_cases_against_oracle(self):
        # no unknowns: consistent exactly when b is zero
        assert _matches_oracle(BitMat(3, 0, [0] * 3), BitVec(3, 0)) == (
            0, (BitVec(0, 0), BitMat(0, 0, [])))
        assert _matches_oracle(BitMat(3, 0, [0] * 3), BitVec(3, 0b100)) == (0, None)
        # an all-zero a with a nonzero b has no solution
        assert _matches_oracle(BitMat(4, 5, [0] * 4), BitVec(4, 0b0010)) == (0, None)
        r, (gamma, basis) = _matches_oracle(BitMat(4, 5, [0] * 4), BitVec.zeros(4))
        eye = BitMat(5, 5, [1 << i for i in range(5)])
        assert (r, gamma, basis) == (0, BitVec.zeros(5), eye)


def _route(monkeypatch, a, b):
    """The back-substitution route solve takes on a.u = b.

    solve back-substitutes by parity ("substitution") when (m + 2) * r is
    at most the bits its echelon rows hold, and walks the pivot bits
    ("walk") otherwise; a spy on _basis counts both.
    """
    counts = []
    basis = gf2._basis

    def spy(rows, width):
        slots = basis(rows, width)
        counts.append((sum(map(bool, slots[2:])), sum(map(int.bit_count, slots))))
        return slots

    with monkeypatch.context() as patch:
        patch.setattr(gf2, "_basis", spy)
        solve(a, b)
    [(r, bits)] = counts
    return "substitution" if (a.cols - r + 2) * r <= bits else "walk"


def _solve_both_ways(a, b):
    """solve(a, b) back-substituted once by parity and once by the walk,
    each forced on the same system; both must match the numpy oracle."""
    results = []
    for route in (gf2._by_parity, gf2._by_walk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gf2, "_by_parity", route)
            patch.setattr(gf2, "_by_walk", route)
            results.append(_matches_oracle(a, b))
    assert results[0] == results[1]
    return results[0]


def _dense_press_systems(n):
    """A G(n, 1/2) press system, all '+', with lamps off and with b = A.u."""
    rnd = random.Random(n)
    edges = [(i, j) for j in range(n) for i in range(j) if rnd.getrandbits(1)]
    a, lamps_off = _graph_system(n, edges, [True] * n, [0] * n)
    return a, (lamps_off, mat_vec(a, BitVec(n, rnd.getrandbits(n))))


def _tree_press_systems(n):
    """A random tree's press system, all '+', with lamps off and with b = A.u."""
    rnd = random.Random(0)
    edges = [(rnd.randrange(v), v) for v in range(1, n)]
    a, lamps_off = _graph_system(n, edges, [True] * n, [0] * n)
    return a, (lamps_off, mat_vec(a, BitVec(n, rnd.getrandbits(n))))


class TestBackSubstitutionRoutes:
    @pytest.mark.parametrize("n", [64, 65, 200, 450])
    def test_dense_press_systems_by_substitution(self, n, monkeypatch):
        # substitution route: these G(n, 1/2) have corank 0 or 1, and
        # their echelon rows hold about n^2/4 bits, far above (m + 2) * r.
        # n = 64 and 65 put the last column at either end of a byte
        rnd = random.Random(n)
        edges = [(i, j) for j in range(n) for i in range(j) if rnd.getrandbits(1)]
        a, lamps_off = _graph_system(n, edges, [True] * n, [0] * n)
        mixed = mat_vec(a, BitVec(n, rnd.getrandbits(n)))
        for b in (lamps_off, mixed):
            assert _route(monkeypatch, a, b) == "substitution"
            _, res = _matches_oracle(a, b)
            assert res is not None

    def test_tree_by_walk(self, monkeypatch):
        # walk route: a tree's echelon rows stay sparse, so with corank
        # m > 20 the m + 1 parity passes would cost more than the walk
        rnd = random.Random(0)
        n = 400
        edges = [(rnd.randrange(v), v) for v in range(1, n)]
        a, lamps_off = _graph_system(n, edges, [True] * n, [0] * n)
        mixed = mat_vec(a, BitVec(n, rnd.getrandbits(n)))
        for b in (lamps_off, mixed):
            assert _route(monkeypatch, a, b) == "walk"
            r, res = _matches_oracle(a, b)
            assert n - r > 20 and res is not None

    @pytest.mark.parametrize("n", [64, 65, 200, 450])
    def test_dense_press_systems_by_both_routes(self, n):
        # systems that take parity, walked as well
        a, rhs = _dense_press_systems(n)
        for b in rhs:
            assert _solve_both_ways(a, b)[1] is not None

    def test_tree_by_both_routes(self):
        # a system that walks, by parity as well
        a, rhs = _tree_press_systems(400)
        for b in rhs:
            r, res = _solve_both_ways(a, b)
            assert 400 - r > 20 and res is not None


@settings(deadline=None)
@given(sparse_systems())
def test_sparse_systems_match_oracle(system):
    _matches_oracle(*system)


@settings(deadline=None)
@given(st.one_of(sparse_systems(), dense_systems()))
def test_both_routes_match_oracle(system):
    # each system on the route solve would not pick for it, too
    _solve_both_ways(*system)


@settings(deadline=None)
@given(st.data())
def test_solve_is_row_order_invariant(data):
    # solve picks its own insertion order, which may change only the fill:
    # r, gamma, the null basis and infeasibility are those of the row space
    a, b = data.draw(st.one_of(sparse_systems(), dense_systems()))
    perm = data.draw(st.permutations(range(a.rows)))
    pa = BitMat(a.rows, a.cols, [a.packed_rows[i] for i in perm])
    pb = BitVec(b.n, sum(b[i] << k for k, i in enumerate(perm)))
    assert solve(pa, pb) == solve(a, b)


def _basis_by_pop(rows, width):
    """The reference for gf2._basis: the same insertion, popping the rows
    off the end of ``rows`` (which it empties) one step per branch."""
    basis = [0] * (width + 1)
    while rows:
        row = rows.pop()
        while row:
            k = row.bit_length()
            piv = basis[k]
            if not piv:
                basis[k] = row
                break
            row ^= piv
    return basis


@st.composite
def basis_inputs(draw):
    """(rows, width): rows of at most width bits, up to three machine words
    wide, with zero rows and repeats of earlier rows, which cancel."""
    width = draw(st.integers(1, 192))
    row = st.integers(0, (1 << width) - 1)
    rows = draw(st.lists(st.one_of(st.just(0), row), max_size=40))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=len(rows)))
    return draw(st.permutations(rows)), width


@settings(deadline=None)
@given(basis_inputs())
@example(([], 1))
@example(([0, 0], 1))
@example(([0b11, 0b01, 0b10, 0b11], 2))
def test_basis_matches_the_pop_loop(case):
    rows, width = case
    slots = _basis_by_pop(list(rows), width)
    passed = list(rows)
    assert gf2._basis(passed, width) == slots
    assert slots[0] == 0
    # _basis reads its input and leaves it as the caller passed it
    assert passed == rows

"""Bit-packed dense linear algebra over GF(2).

Vectors and matrix rows are stored as Python ints (bit i = coordinate i),
so a row update is a single word-parallel XOR no matter how wide the row
is.  Everything is immutable from the caller's point of view: operations
return fresh values and never touch their inputs.

A null basis has one layout everywhere: an m x n ``BitMat`` whose row k
is the k-th basis vector, packed over the n unknowns (the vertices).
``solve`` returns it, ``column_echelon_grouped`` reduces it and
``EchelonDecomposition`` stores it, so no stage transposes.

Two elimination kernels live here, and each pays for its fill rather
than for a scan of every row or column per pivot.  ``solve`` takes the
rows of [a | b] packed bit-mirrored, leading column in the top bit and b
in bit 0: ``_packed_system`` builds every lamp instance's rows in this
layout (it describes its two routes), ``_unmirror`` reads one back in
vertex order, and a natural ``BitMat`` is mirrored into it.  ``solve``
feeds the rows lightest first (ties to the highest row index), which
changes only the fill, to ``_basis``; that keys its slots by
``int.bit_length``, so every XOR shortens the row it clears.  Reading b
as one more free column, it back-substitutes the m + 1 systems (gamma's
and one per free column) by ``_by_parity`` or ``_by_walk``, whichever
takes fewer steps; both return the same mirrored solutions, and
``_unmirror`` reads them out in vertex order.
``_eliminate`` is the Gaussian forward pass with row swaps, driven by a
list of each row's lowest set bit instead of a scan of the n columns;
only ``column_echelon_grouped`` uses it, because the grouped echelon
form (unlike the RREF) depends on how basis vectors were combined.  Its
parts are vertex masks, so no vertex is sorted or permuted.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress

# _REV[x] is the byte x with its bit order reversed
_REV = bytes(int(f"{x:08b}"[::-1], 2) for x in range(256))

# a binary digit to its truth value, one byte each
_BIT_FLAG = bytes.maketrans(b"01", b"\x00\x01")


class BitVec:
    """Immutable GF(2) vector of fixed length packed into one int.

    Bit i of ``bits`` is coordinate i; bits at positions >= n are zero.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0) -> None:
        if n < 0:
            raise ValueError(f"negative length {n}")
        if bits < 0 or bits >> n:
            raise ValueError(f"bits 0x{bits:x} do not fit in length {n}")
        self.n = n
        self.bits = bits

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def from01(cls, text: str) -> "BitVec":
        """Parse a string like '0110', leftmost character = coordinate 0."""
        # strip leaves the first character that is not '0' or '1' in front
        bad = text.strip("01")
        if bad:
            raise ValueError(f"character {bad[0]!r} is not '0' or '1'")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    @property
    def weight(self) -> int:
        """Number of set bits (Hamming weight)."""
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        """Ascending list of set-bit positions."""
        # byte i of the flags is bit i, so one C-level pass keeps the
        # positions set
        flags = self.to01().encode().translate(_BIT_FLAG)
        return list(compress(range(self.n), flags))

    def to01(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVec)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitVec({self.n}, 0b{self.bits:0{max(self.n, 1)}b})"


class BitMat:
    """Immutable GF(2) matrix stored as one packed int per row."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, row_bits: Sequence[int]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        if len(row_bits) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_bits)}")
        for rb in row_bits:
            if rb < 0 or rb >> cols:
                raise ValueError(f"row 0x{rb:x} does not fit in {cols} columns")
        self.rows = rows
        self.cols = cols
        self._rows = tuple(row_bits)

    @property
    def packed_rows(self) -> tuple[int, ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._rows))

    def __repr__(self) -> str:
        return f"BitMat({self.rows}x{self.cols})"


class EchelonDecomposition:
    """Echelon basis of a null space, grouped into vertex parts.

    ``basis`` is m x n: row k is the k-th echelon basis vector (column k of
    epsilon), packed over the n vertices, and ``gamma`` is the particular
    solution.  Vertex v lies in part i >= 1 when the last basis vector that
    touches it is i-1, and in part 0 when none does; ``parts[i]`` is part i
    as a vertex mask, so the parts partition the vertices.  In echelon form
    every part i >= 1 is nonempty.

    Every solution agrees with gamma on part 0, so the decomposition
    certifies the bounds of any press set read from it: r = n - m is the
    rank of the system, g1/g0 count gamma's ones/zeros on part 0, the
    forced presses/non-presses, and 2 * weight <= n + g1 - g0.
    """

    __slots__ = ("basis", "parts", "gamma")

    def __init__(self, basis: BitMat, gamma: BitVec) -> None:
        if basis.cols != gamma.n:
            raise ValueError(f"basis width {basis.cols} does not match {gamma.n} vertices")
        vecs = basis.packed_rows
        # suffix OR: a vertex belongs to the last vector that touches it
        parts = [0] * (len(vecs) + 1)
        later = 0
        for k in range(len(vecs) - 1, -1, -1):
            parts[k + 1] = vecs[k] & ~later
            later |= vecs[k]
        parts[0] = ((1 << gamma.n) - 1) & ~later
        self.basis = basis
        self.parts = tuple(parts)
        self.gamma = gamma

    @property
    def n(self) -> int:
        return self.gamma.n

    @property
    def m(self) -> int:
        return self.basis.rows

    @property
    def r(self) -> int:
        return self.n - self.m

    @property
    def g1(self) -> int:
        return (self.gamma.bits & self.parts[0]).bit_count()

    @property
    def g0(self) -> int:
        return self.parts[0].bit_count() - self.g1

    @property
    def bound_mixed_x2(self) -> int:
        """Twice the mixed bound: 2 * sol <= it."""
        return self.n + self.g1 - self.g0

    def __repr__(self) -> str:
        sizes = [part.bit_count() for part in self.parts]
        return f"EchelonDecomposition(n={self.n}, m={self.m}, part_sizes={sizes})"


def _basis(rows: Sequence[int], width: int) -> list[int]:
    """Forward elimination into a basis keyed by bit length.

    Rows are bit-mirrored (see ``solve``): the leading column of a
    row is its highest set bit, so slot k of the result holds the row whose
    bit length is k (slot 0 stays 0; 0 marks an empty slot), and no row
    is longer than ``width`` bits.  Rows are inserted last to first, and
    ``rows`` is left as it was.  Each row is XORed with the slot row of
    its bit length until it lands in an empty slot or cancels to zero;
    every XOR clears the row's top bit, so the row gets shorter and the
    next step costs less, and a row only ever meets the rows that share
    its leading columns: the cost is the fill, not a scan of every row per
    pivot.  The filled slots span the row space of the input, and their
    count is its rank, whatever the order of the rows; the order decides
    the fill, and light rows first keeps it small (structured Gaussian
    elimination; LaMacchia & Odlyzko, CRYPTO 1990).
    """
    # a list indexed by bit_length, not a dict keyed by the power of two:
    # hashing a wide int costs O(words) per lookup
    basis = [0] * (width + 1)
    for row in reversed(rows):
        # a row that cancels has bit length 0 and lands in slot 0, which stays 0
        while piv := basis[k := row.bit_length()]:
            row ^= piv
        basis[k] = row
    return basis


def _eliminate(rows: list[int], ncols: int) -> list[int]:
    """Forward (row echelon) elimination of packed rows, in place.

    Step r makes the smallest lowest set bit among rows r.. the pivot
    column c, swaps the first row holding it up to row r and XORs that row
    into the others below that hold it.  Rows r.. have no bit below c, so
    a row holds bit c exactly when its lowest set bit is c, and a list of
    lowest bits finds both the pivot and the rows to clear without a scan
    of the n columns; these are the swaps and XORs of the column-by-column
    pass.  Returns the pivot columns; row k then has bit pivots[k] as its
    lowest set bit, and rows past the last pivot are zero.
    """
    nrows = len(rows)
    # a zero row's entry is ncols, past every column
    low = [(row & -row).bit_length() - 1 if row else ncols for row in rows]
    pivots: list[int] = []
    for r in range(nrows):
        c = min(low[r:])
        if c == ncols:
            break
        piv = low.index(c, r)
        rows[r], rows[piv] = rows[piv], rows[r]
        low[r], low[piv] = c, low[r]
        prow = rows[r]
        # rows above r hold lower pivots, so the count is of rows r..
        i = r
        for _ in range(low.count(c) - 1):
            i = low.index(c, i + 1)
            row = rows[i] ^ prow
            rows[i] = row
            low[i] = (row & -row).bit_length() - 1 if row else ncols
        pivots.append(c)
    return pivots


def _mirror(x: int, nbytes: int) -> int:
    """x with its low 8 * nbytes bits reversed, an involution: the bytes
    go out little-endian and back big-endian, _REV reverses each one."""
    return int.from_bytes(x.to_bytes(nbytes, "little").translate(_REV), "big")


def _by_parity(basis: list[int], seeds: list[int]) -> list[int]:
    """Each seed's mirrored solution over a consistent ``_basis`` result:
    a filled slot's row holds only its own pivot and higher columns, so,
    highest pivot first, its pivot is the parity of row & x."""
    pivots = [(1 << (k - 1), row) for k, row in enumerate(basis) if row]
    sols = []
    for x in seeds:
        for top, row in pivots:
            if (row & x).bit_count() & 1:
                x |= top
        sols.append(x)
    return sols


def _by_walk(basis: list[int], seeds: list[int]) -> list[int]:
    """``_by_parity``'s solutions, by reducing ``basis`` in place to the RREF.

    Highest pivot column (lowest slot) first, a row with a higher pivot is
    already reduced: it carries no pivot bit but its own, and XORing it in
    clears that bit and sets no other, so only a row's pivot bits cost a
    step.  A reduced row's pivot is one in the system of each seed bit the
    row holds, so its pivot bit is gathered under that seed's bit length.
    """
    seedmask = sum(seeds)
    pivmask = ((1 << (len(basis) - 1)) - 1) ^ seedmask
    sols = [0] * len(basis)
    for k, row in enumerate(basis):
        if not row:
            continue
        top = 1 << (k - 1)
        x = (row & pivmask) ^ top
        while x:
            j = x.bit_length()
            row ^= basis[j]
            x ^= 1 << (j - 1)
        basis[k] = row
        f = row & seedmask
        while f:
            j = f.bit_length()
            sols[j] |= top
            f ^= 1 << (j - 1)
    return [sols[x.bit_length()] | x for x in seeds]


def _row_bytes(cols: int) -> int:
    """Bytes per packed row of a system with cols unknowns: column c sits
    at bit 8 * bytes - 1 - c and the right-hand side at bit 0."""
    return cols // 8 + 1


def _column_bits(cols: int) -> list[int]:
    """Each column's bit in a packed row, column 0 first."""
    top = 8 * _row_bytes(cols) - 1
    return [1 << k for k in range(top, top - cols, -1)]


def _unmirror(row: int, cols: int) -> int:
    """A packed row's columns in natural order, column c at bit c.  The
    right-hand side mirrors past them and is dropped."""
    return _mirror(row, _row_bytes(cols)) & ((1 << cols) - 1)


# Warren's 8 x 8 bit-matrix transpose as three delta swaps, one per h in
# 4, 2, 1: (h, the byte whose set bits are the columns c with c & h set)
_BLOCK_SWAPS = ((4, 0xF0), (2, 0xCC), (1, 0xAA))


def _or_mirrored(rows: list[int], cols: int) -> list[int]:
    """Each packed row ORed with its mirror image across the anti-diagonal:
    row i gains column j wherever row j holds column i, so a system that
    holds each pair once, in either orientation, comes out symmetric.  A
    row's bit 0 would mirror into row w - 1, past the last, and is dropped
    (w = 8 * _row_bytes(cols) is the row width).

    The rows are packed into one int, w bits a row, and every 8 x 8 block
    of it is transposed at once by three delta swaps (Warren, Hacker's
    Delight, 2nd ed., section 7-3): level h exchanges bit c of row r with
    bit c - h of row r + h where c has the bit h set and r has it clear,
    so each swap shifts by h * (w - 1).  The blocks then trade places in
    the read-out: transposed row 8k + i is byte k of rows i, 8 + i, ..,
    one strided slice, and read with each byte's bits reversed (``_REV``)
    and big-endian, transposed row w - 1 - j is the mirror of column j.
    The transient memory is a few ints of w squared bits: 11 KiB each at
    300 unknowns, 124 KiB at 1000.
    """
    nbytes = _row_bytes(cols)
    width = 8 * nbytes
    x = int.from_bytes(b"".join([row.to_bytes(nbytes, "little") for row in rows]), "little")
    zero = bytes(nbytes)
    for half, low in _BLOCK_SWAPS:
        # rows with the bit half clear carry the moving bits, in every block
        mask = (bytes([low]) * nbytes * half + zero * half) * (width // (2 * half))
        shift = half * (width - 1)
        t = ((x >> shift) ^ x) & int.from_bytes(mask, "little")
        x ^= t ^ (t << shift)
    flipped = x.to_bytes(width * nbytes, "little").translate(_REV)
    # transposed row 8k + i starts at byte k of row i; rows w - 1, w - 2, ..
    starts = [i * nbytes + k for k in range(nbytes - 1, -1, -1) for i in range(7, -1, -1)]
    return [row | int.from_bytes(flipped[s::width], "big") for row, s in zip(rows, starts)]


# the dense route's rule (see _packed_system), measured on sorted edges: at
# an edge per 16 of the w * w bits it is break-even at 200 vertices and
# 10-27% faster from 255 to 3000; below 200 vertices it loses there
_DENSE_MIN_N = 200
_DENSE_RATIO = 16


def _packed_system(
    cols: int, plus: bytes, off: bytes, edges: Iterable[tuple[int, int]], count: int
) -> list[int]:
    """The packed rows of a lamp system on cols vertices and its count
    edges, each given once in either orientation: row v holds vertex w's
    column when v's button toggles lamp w (w a neighbor, or v where
    plus[v] is set), and bit 0 where off[v] is set.  A repeated edge
    leaves its bits as they were; an endpoint >= cols raises IndexError.

    The route follows from cols and count alone.  ``_loop_route`` ORs each
    edge into both of its rows.  From _DENSE_MIN_N vertices on, once
    _DENSE_RATIO * count reaches w * w for rows of w bits, ``_dense_route``
    ORs each edge into its first endpoint's row only and ``_or_mirrored``
    adds the other half: one transpose of about w * w bit operations
    whatever the edge count, with a few w * w-bit ints of transient
    memory, in place of an OR per edge."""
    bit = _column_bits(cols)
    # a row with no flag starts as its table entry: b | 0 would copy a wide int
    rows = [(b | f if f else b) if p else f for b, p, f in zip(bit, plus, off)]
    dense = cols >= _DENSE_MIN_N and _DENSE_RATIO * count >= (8 * _row_bytes(cols)) ** 2
    return (_dense_route if dense else _loop_route)(rows, bit, edges)


def _loop_route(rows: list[int], bit: list[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    for i, j in edges:
        rows[i] |= bit[j]
        rows[j] |= bit[i]
    return rows


def _dense_route(rows: list[int], bit: list[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    for i, j in edges:
        rows[i] |= bit[j]
    return _or_mirrored(rows, len(bit))


def _packed_endpoints(cols: int, plus: bytes, off: bytes, ends: list[int]) -> list[int] | None:
    """``_packed_system`` on the edges (ends[2k], ends[2k + 1]), or None
    unless they are distinct pairs of distinct vertices below cols; every
    endpoint must be a non-negative int.  The build turns away an endpoint
    >= cols, and one popcount over the rows finds the other faults: a new
    edge sets exactly two new bits, a repeated edge, in either orientation,
    none, and a self-loop at most one, as the dense route's mirror of a
    diagonal bit is itself."""
    pairs = iter(ends)
    try:
        rows = _packed_system(cols, plus, off, zip(pairs, pairs), len(ends) >> 1)
    except IndexError:
        return None
    if sum(map(int.bit_count, rows)) != len(ends) + plus.count(1) + off.count(1):
        return None
    return rows


def _upper_pairs(rows: Sequence[int], cols: int) -> list[tuple[int, int]]:
    """The edges of a lamp system's packed rows: the pairs (i, j), i < j,
    where row i holds column j, in sorted order."""
    # column j sits at bit top - j, so bits 1 to top - i - 1 are row i's
    # columns above i (bit 0 is the right-hand side), read highest first
    top = 8 * _row_bytes(cols) - 1
    pairs = []
    for i, row in enumerate(rows):
        row &= (1 << (top - i)) - 2
        while row:
            k = row.bit_length() - 1
            pairs.append((i, top - k))
            row ^= 1 << k
    return pairs


def solve(
    a: BitMat | Sequence[int], b: BitVec | int
) -> tuple[int, tuple[BitVec, BitMat] | None]:
    """Solve a.u = b over GF(2) with one elimination of [a | b].

    Returns (r, res): r is the rank of a; res is (gamma, null_basis) for a
    consistent system and None otherwise.  gamma is the particular solution
    with every free variable set to zero; null_basis is m x cols, its row k
    obtained by setting the k-th free variable (ascending column order) to
    one and back-substituting.  Both are read off the reduced row
    echelon form, which is unique for the column order, so any correct
    elimination gives the same result.  A dimension mismatch raises
    ValueError; that is a contract violation, not infeasibility.

    The elimination reads each row of [a | b] bit-mirrored: with
    L = cols // 8 + 1 bytes per row, column c sits at bit 8L-1-c and b at
    bit 0, so a row's leading column is its top bit and its bit length
    names it.  The system comes in one of two forms.  Given a ``BitMat``
    a and a ``BitVec`` b, each row is mirrored into that layout.  Given
    the rows already in it and the number of unknowns as b, the rows are
    used as they are, and left as they were: ``lamps.Instance`` keeps its
    system this way, so the solve path mirrors no row on the way in.  b
    is never a pivot of a consistent system, so it is read out like a
    free column: gamma's system is seeded with b's bit (the constant one)
    and each null vector's with its free column's bit, and the m + 1
    solutions are mirrored back once, at the end.

    Back-substitution takes one of two routes, both exact.  By parity,
    each of the m + 1 systems costs one AND and one popcount per pivot
    row, (m + 1) * r steps; the walk to the reduced row echelon form
    costs one step per off-pivot bit of the echelon rows, T - r for T
    bits in all.  Parity is taken when (m + 2) * r <= T: on dense
    low-corank systems, where T grows as r squared, and on most systems
    of full rank, where it costs one pass; sparse systems with many free
    columns, such as random trees, walk.
    """
    if isinstance(a, BitMat):
        if a.rows != b.n:
            raise ValueError(f"matrix has {a.rows} rows but vector length is {b.n}")
        nbytes = _row_bytes(a.cols)
        # b (a bool) is bit 0
        rows = [_mirror(row, nbytes) | (f == "1") for f, row in zip(b.to01(), a.packed_rows)]
        cols = a.cols
    else:
        rows, cols = a, b
    width = 8 * _row_bytes(cols)
    # _basis inserts last to first, so it meets the lightest rows first, ties
    # to the highest index (a reverse sort stays stable): light rows carry
    # few bits into their slots, and on a banded system such as a grid the
    # reversed order fills far less than the natural one.  The order
    # changes only the fill, never the RREF read off below
    basis = _basis(sorted(rows, key=int.bit_count, reverse=True), width)
    # slot width - c holds column c's pivot row; b's seed comes first
    seeds = [1] + [1 << (width - 1 - c) for c in range(cols) if not basis[width - c]]
    m = len(seeds) - 1
    r = cols - m
    # a filled b slot is a row "0 = 1"
    if basis[1]:
        return r, None
    route = _by_parity if (m + 2) * r <= sum(map(int.bit_count, basis)) else _by_walk
    sols = [_unmirror(x, cols) for x in route(basis, seeds)]
    return r, (BitVec(cols, sols[0]), BitMat(m, cols, sols[1:]))


def column_echelon_grouped(
    null_basis: BitMat, gamma: BitVec
) -> EchelonDecomposition:
    """Reduce an m x n null basis of independent rows to echelon form and
    group the vertices by the last echelon vector that touches them.

    Row k of the input is a basis vector, i.e. column k of epsilon, so a row
    reduction of the input is a column reduction of epsilon: an invertible
    change of basis, after which the affine solution sets
    {epsilon.z + gamma} and {input.x + gamma} coincide.  The grouping is a
    partition of the vertices (``EchelonDecomposition.parts``); no vertex is
    moved.

    The reduction is the swapping forward pass of ``_eliminate``, not the
    keyed basis ``solve`` uses.  Column echelon form is not unique:
    greedy_assign reads each vertex's bits in the vectors before its last
    one, and those bits depend on which vectors were XORed into which.  A
    keyed pass picks different ones and, on ties, a different press set of
    the same weight, so the swapping pass is what keeps press sets stable.
    """
    m, n = null_basis.rows, null_basis.cols
    vecs = list(null_basis.packed_rows)
    if len(_eliminate(vecs, n)) != m:
        raise ValueError("null basis rows are not independent")
    return EchelonDecomposition(BitMat(m, n, vecs), gamma)

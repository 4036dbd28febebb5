"""Bit-packed dense linear algebra over GF(2).

Vectors and matrix rows are stored as Python ints (bit i = coordinate i),
so a row update is a single word-parallel XOR no matter how wide the row
is.  Everything is immutable from the caller's point of view: operations
return fresh values and never touch their inputs.

A null basis has one layout everywhere: an m x n ``BitMat`` whose row k
is the k-th basis vector, packed over the n unknowns (the vertices).
``solve`` returns it, ``column_echelon_grouped`` reduces it and
``EchelonDecomposition`` stores it, so no stage transposes.

Two elimination kernels live here.  ``_basis`` inserts rows into a basis
keyed by lowest set bit; ``solve`` back-substitutes it to the reduced row
echelon form, so its cost follows the fill of a sparse system rather
than one scan of every row per pivot.  ``_eliminate`` is the Gaussian
forward pass with row swaps; only ``column_echelon_grouped`` uses it,
because the grouped echelon form (unlike the RREF) depends on how basis
vectors were combined.  Its parts are vertex masks, so no vertex is
sorted or permuted.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


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
    def ones(cls, n: int) -> "BitVec":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVec":
        """Build from an iterable of 0/1 values, first value = coordinate 0."""
        bits = 0
        n = 0
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"bit value {v!r} is not 0 or 1")
            bits |= v << n
            n += 1
        return cls(n, bits)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "BitVec":
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for length {n}")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def from01(cls, text: str) -> "BitVec":
        """Parse a string like '0110', leftmost character = coordinate 0."""
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"character {ch!r} is not '0' or '1'")
        return cls(len(text), bits)

    @property
    def weight(self) -> int:
        """Number of set bits (Hamming weight)."""
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        """Ascending list of set-bit positions."""
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVec(self.n, self.bits ^ other.bits)

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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMat":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMat":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_rows(cls, vecs: Sequence[BitVec]) -> "BitMat":
        if not vecs:
            raise ValueError("cannot infer width from an empty row list")
        cols = vecs[0].n
        if any(v.n != cols for v in vecs):
            raise ValueError("rows have mixed lengths")
        return cls(len(vecs), cols, [v.bits for v in vecs])

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BitMat":
        return cls.from_rows([BitVec.from_bits(row) for row in entries])

    @property
    def packed_rows(self) -> tuple[int, ...]:
        return self._rows

    def transpose(self) -> "BitMat":
        out = [0] * self.cols
        for i, rb in enumerate(self._rows):
            while rb:
                low = rb & -rb
                out[low.bit_length() - 1] |= 1 << i
                rb ^= low
        return BitMat(self.cols, self.rows, out)

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

    def __repr__(self) -> str:
        sizes = [part.bit_count() for part in self.parts]
        return f"EchelonDecomposition(n={self.n}, m={self.m}, part_sizes={sizes})"


def _basis(rows: Iterable[int], ncols: int) -> list[int]:
    """Forward elimination into a basis keyed by lowest set bit.

    Slot k of the result holds the row whose lowest set bit is column k-1
    (slot 0 stays 0; 0 marks an empty slot).  Each input row is XORed with
    the slot row of its current lowest bit until it lands in an empty slot
    or cancels to zero, so a row only ever meets the rows that share its
    leading columns: the cost is the fill, not a scan of every row per
    pivot.  The filled slots span the row space of the input, and their
    count is its rank.
    """
    # a list indexed by bit_length, not a dict keyed by the power of two:
    # hashing a wide int costs O(words) per lookup
    basis = [0] * (ncols + 1)
    for row in rows:
        while row:
            k = (row & -row).bit_length()
            piv = basis[k]
            if not piv:
                basis[k] = row
                break
            row ^= piv
    return basis


def _eliminate(rows: list[int], ncols: int) -> list[int]:
    """Forward (row echelon) elimination of packed rows, in place.

    For each column in ascending order, the first row at or below the
    current pivot row with that bit set is swapped up and XORed into the
    rows below it that also have the bit.  Returns the pivot columns; row k
    then has bit pivots[k] as its lowest set bit, and rows past the last
    pivot are zero.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        mask = 1 << c
        for piv in range(r, nrows):
            if rows[piv] & mask:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i in range(r + 1, nrows):
            if rows[i] & mask:
                rows[i] ^= prow
        pivots.append(c)
        r += 1
    return pivots


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


def solve(
    a: BitMat, b: BitVec
) -> tuple[int, Optional[tuple[BitVec, BitMat]]]:
    """Solve a.u = b over GF(2) with one elimination of [a | b].

    Returns (r, res): r is the rank of a; res is (gamma, null_basis) for a
    consistent system and None otherwise.  gamma is the particular solution
    with every free variable set to zero; null_basis is m x cols, its row k
    obtained by setting the k-th free variable (ascending column order) to
    one and back-substituting.  Both are read off the reduced row
    echelon form, which is unique for the column order, so any correct
    elimination gives the same result.  A dimension mismatch raises
    ValueError; that is a contract violation, not infeasibility.
    """
    if a.rows != b.n:
        raise ValueError(f"matrix has {a.rows} rows but vector length is {b.n}")
    cols = a.cols
    bmask = 1 << cols
    bbits = b.bits
    basis = _basis(
        (rb | bmask if (bbits >> i) & 1 else rb for i, rb in enumerate(a.packed_rows)),
        cols + 1,
    )
    pivmask = 0
    for k in range(1, cols + 1):
        if basis[k]:
            pivmask |= 1 << (k - 1)
    r = pivmask.bit_count()
    # a filled b slot is a row "0 = 1"
    if basis[cols + 1]:
        return r, None
    # back-substitute to the reduced row echelon form, highest pivot first:
    # a row with a higher pivot is already reduced, so it carries no pivot
    # bit but its own, and XORing it in clears that bit without setting
    # another one; only the pivot bits a row holds cost a step
    for k in range(cols, 0, -1):
        row = basis[k]
        if not row:
            continue
        x = (row & pivmask) ^ (1 << (k - 1))
        while x:
            low = x & -x
            row ^= basis[low.bit_length()]
            x ^= low
        basis[k] = row
    # the null vector of free column c holds bit c and the pivot bit of
    # every reduced row that holds c; pivot columns keep a 0 placeholder
    freemask = ((1 << cols) - 1) ^ pivmask
    vecs = [0 if basis[c + 1] else 1 << c for c in range(cols)]
    gamma = 0
    for k in range(1, cols + 1):
        row = basis[k]
        if not row:
            continue
        piv = 1 << (k - 1)
        if row & bmask:
            gamma |= piv
        f = row & freemask
        while f:
            low = f & -f
            vecs[low.bit_length() - 1] |= piv
            f ^= low
    vecs = [v for v in vecs if v]
    return r, (BitVec(cols, gamma), BitMat(len(vecs), cols, vecs))


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
    if gamma.n != n:
        raise ValueError(f"gamma length {gamma.n} does not match {n} columns")
    vecs = list(null_basis.packed_rows)
    if len(_eliminate(vecs, n)) != m:
        raise ValueError("null basis rows are not independent")
    return EchelonDecomposition(BitMat(m, n, vecs), gamma)

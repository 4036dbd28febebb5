"""Lamp/switch instances, their GF(2) systems, and the solver's answer.

An instance is a simple graph with a lamp and a button on every vertex.
Pressing a SIGMA_PLUS button toggles the vertex's own lamp and all of its
neighbors' lamps; a SIGMA button toggles the neighbors' lamps only.  The
goal is a press set that leaves every lamp on.  ``Solution`` holds such
a press set together with the decomposition behind its bounds.

The instance's linear system A.u = B has one row per vertex v: the
vertices v's button toggles, and whether lamp v is off.  Its rows are
packed in the layout ``gf2.solve``'s elimination reads (``gf2`` owns
it: vertex w's bit comes from ``_column_bits`` and the lamp-off flag is
bit 0), so the solve path uses them as they are; ``simulate_presses``
and ``build_system`` read them back in vertex order with ``_unmirror``,
and ``edges`` reads each row's vertices above its own top-down.
``_packed_system`` builds these rows by one of two routes.  The edge
loop ORs each edge into both of its rows.  The dense build ORs each edge
into one row and adds the other half in one transpose
(``gf2._or_mirrored``), which costs about w * w bit operations for rows
of w bits whatever the edge count, and a few w * w-bit ints of transient
memory.  ``Instance._from_endpoints`` takes it from 200 vertices on, once
there is an edge per 16 of the w * w bits; every other caller loops.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from enum import Enum
from operator import index

from .gf2 import (
    BitMat,
    BitVec,
    EchelonDecomposition,
    _column_bits,
    _or_mirrored,
    _row_bytes,
    _unmirror,
)


class SwitchType(Enum):
    """Press effect of a vertex's button."""

    SIGMA_PLUS = "+"  # toggles the vertex and its neighbors
    SIGMA = "-"  # toggles the neighbors only


def _clip(text: str, width: int = 40) -> str:
    """Input text to echo in a message, cut to width characters and '...'."""
    return text if len(text) <= width else text[:width] + "..."


class EdgeError(ValueError):
    """An edge an instance cannot hold; ``index`` is its position in the input."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


class Instance:
    """A lamp-lighting instance: graph, switch types, initial lamp states.

    The vertex count and the endpoints become plain ints by
    ``operator.index``, so bools and numpy ints convert; a vertex count of
    another type raises ValueError.  Edges are canonicalized to a sorted
    tuple of (min, max) pairs, so two instances describing the same graph
    compare equal.  Edges that are not pairs, non-integer endpoints,
    self-loops, duplicate edges and out-of-range endpoints are rejected
    with an EdgeError naming the first bad edge in input order.

    The constructor keeps the edge tuple, O(edges) space, and packs the
    system's rows (see the module docstring) each time they are read.  The
    bulk parse path keeps the packed rows instead and derives ``edges``
    from them on first use.  Either way an instance holds one layout of
    the rows at most.
    """

    __slots__ = ("n", "switches", "initially_on", "_edges", "_rows")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        switches: Sequence[SwitchType] | None = None,
        initially_on: BitVec | None = None,
    ) -> None:
        try:
            n = index(n)
        except TypeError:
            raise ValueError(f"vertex count {n!r} is not an integer") from None
        if n < 1:
            raise ValueError("an instance needs at least one vertex")
        canon = []
        seen = set()
        for idx, edge in enumerate(edges):
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise EdgeError(idx, f"edge {edge!r} is not a pair of endpoints") from None
            try:
                # bools and numpy ints become plain ints; floats and strings fail
                i, j = index(i), index(j)
            except TypeError:
                raise EdgeError(idx, f"edge ({i!r}, {j!r}) has a non-integer endpoint") from None
            if not (0 <= i < n and 0 <= j < n):
                shown = f"{_clip(str(i), 20)}, {_clip(str(j), 20)}"
                raise EdgeError(idx, f"edge ({shown}) out of range for {n} vertices")
            if i == j:
                raise EdgeError(idx, f"self-loop at vertex {i}")
            e = (i, j) if i < j else (j, i)
            if e in seen:
                raise EdgeError(idx, f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        if switches is None:
            switches = (SwitchType.SIGMA_PLUS,) * n
        switches = tuple(switches)
        if len(switches) != n:
            raise ValueError(f"expected {n} switch types, got {len(switches)}")
        if any(not isinstance(s, SwitchType) for s in switches):
            raise ValueError("switches must be SwitchType values")
        if initially_on is None:
            initially_on = BitVec.zeros(n)
        if not isinstance(initially_on, BitVec):
            raise ValueError(f"initially_on must be a BitVec, not {type(initially_on).__name__}")
        if initially_on.n != n:
            raise ValueError(
                f"initially_on has length {initially_on.n}, expected {n}"
            )
        self.n = n
        # sorting the list, not the set, keeps an already sorted input cheap
        canon.sort()
        self._edges = tuple(canon)
        self._rows = None
        self.switches = switches
        self.initially_on = initially_on

    @classmethod
    def _from_endpoints(
        cls,
        n: int,
        ends: list[int],
        switches: tuple[SwitchType, ...],
        initially_on: BitVec,
    ) -> Instance | None:
        """The instance on edges (ends[2k], ends[2k + 1]), or None where
        __init__ would raise; it never raises.

        Every endpoint must already be a non-negative int, as the bulk
        parser's vertex table guarantees, and switches and initially_on
        must hold n entries.  The graph is kept as the system's packed
        rows, built straight from the endpoints: by the dense build when
        there are at least _DENSE_MIN_N vertices and _DENSE_RATIO times
        the edge count reaches the row width squared, and by the edge loop
        otherwise (see ``_packed_system``).  Either build turns away an
        endpoint >= n, which indexes past its length-n lists, and one
        popcount over the rows finds the other faults: a new edge sets
        exactly two new bits, a repeated edge, in either orientation, none,
        and a self-loop at most one, as the dense build's mirror of a
        diagonal bit is itself.
        """
        # the transpose costs about width squared bit operations whatever
        # the edge count, and saves one row OR per edge
        width = 8 * _row_bytes(n)
        dense = n >= _DENSE_MIN_N and _DENSE_RATIO * (len(ends) >> 1) >= width * width
        pairs = iter(ends)
        try:
            rows = _packed_system(n, switches, initially_on, zip(pairs, pairs), dense)
        except IndexError:
            return None
        plus = switches.count(SwitchType.SIGMA_PLUS)
        off = n - initially_on.weight
        if sum(map(int.bit_count, rows)) != len(ends) + plus + off:
            return None
        self = cls.__new__(cls)
        self.n = n
        self._edges = None
        self._rows = tuple(rows)
        self.switches = switches
        self.initially_on = initially_on
        return self

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as a sorted tuple of (min, max) pairs."""
        if self._edges is None:
            # vertex j sits at bit top - j, so bits 1 to top - i - 1 are
            # row i's vertices above i (bit 0 is the lamp-off flag), and
            # highest bit first, (i, j) comes out in sorted order
            top = 8 * _row_bytes(self.n) - 1
            edges = []
            for i, row in enumerate(self._rows):
                row &= (1 << (top - i)) - 2
                while row:
                    k = row.bit_length() - 1
                    edges.append((i, top - k))
                    row ^= 1 << k
            self._edges = tuple(edges)
        return self._edges

    def _packed_rows(self) -> tuple[int, ...]:
        """The rows of [A | B] in the layout ``gf2.solve`` eliminates:
        row v holds vertex w's bit when v's button toggles lamp w, and
        bit 0 when lamp v is off."""
        if self._rows is not None:
            return self._rows
        return tuple(_packed_system(self.n, self.switches, self.initially_on, self.edges))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instance)
            and self.n == other.n
            and self.edges == other.edges
            and self.switches == other.switches
            and self.initially_on == other.initially_on
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.switches, self.initially_on))

    def __repr__(self) -> str:
        kinds = "".join(s.value for s in self.switches)
        return (
            f"Instance(n={self.n}, edges={len(self.edges)}, "
            f"switches={kinds!r}, on={self.initially_on.to01()!r})"
        )


# a lamp's state character to its lamp-off flag, one byte each
_OFF_FLAG = bytes.maketrans(b"01", b"\x01\x00")

# _from_endpoints builds the rows densely (see _packed_system) from this
# many vertices on, once the edges times this ratio reach the row width
# squared.  Both are measured crossovers on sorted edges: at an edge per 16
# of the w * w bits the dense build is break-even at 200 vertices and
# 10-27% faster from 255 to 3000; below 200 vertices it loses there
_DENSE_MIN_N = 200
_DENSE_RATIO = 16


def _packed_system(
    n: int,
    switches: Sequence[SwitchType],
    initially_on: BitVec,
    edges: Iterable[tuple[int, int]],
    dense: bool = False,
) -> list[int]:
    """The system's packed rows (see ``Instance._packed_rows``): per vertex
    v, the vertices v's button toggles, and the lamp-off flag at bit 0.
    Each edge is given once, in either orientation; a repeated edge
    leaves its bits as they were, and an endpoint >= n raises
    IndexError.

    The edge loop ORs each edge into both of its rows.  With dense set,
    it ORs each edge into its first endpoint's row only, and
    ``gf2._or_mirrored`` then adds every row's mirror image, which holds
    the other half: one transpose of the rows' bits in place of an OR per
    edge."""
    bit = _column_bits(n)
    off = initially_on.to01().encode().translate(_OFF_FLAG)
    plus = SwitchType.SIGMA_PLUS
    # a row with no flag starts as its table entry: b | 0 would copy a wide int
    rows = [(b | f if f else b) if s is plus else f for b, s, f in zip(bit, switches, off)]
    if dense:
        for i, j in edges:
            rows[i] |= bit[j]
        return _or_mirrored(rows, n)
    for i, j in edges:
        rows[i] |= bit[j]
        rows[j] |= bit[i]
    return rows


class Solution:
    """A feasible press set and the echelon decomposition it was read from.

    The decomposition carries the certificate, in integers: the weight is
    at most its rank r, and twice the weight at most its bound_mixed_x2,
    n + g1 - g0.  opt, when present, is the exact minimum, and
    g1 <= opt <= weight must hold.
    """

    __slots__ = ("press", "decomposition", "opt")

    def __init__(
        self, press: BitVec, decomposition: EchelonDecomposition, opt: int | None = None
    ) -> None:
        if press.n != decomposition.n:
            raise ValueError(f"press vector length {press.n}, expected {decomposition.n}")
        if opt is not None and not decomposition.g1 <= opt <= press.weight:
            raise ValueError(
                f"opt {opt} outside [g1={decomposition.g1}, weight={press.weight}]"
            )
        self.press = press
        self.decomposition = decomposition
        self.opt = opt

    @property
    def weight(self) -> int:
        return self.press.weight

    def with_opt(self, opt: int) -> "Solution":
        """Attach an exact optimum (validates g1 <= opt <= weight)."""
        return Solution(self.press, self.decomposition, opt)


def build_system(inst: Instance) -> tuple[BitMat, BitVec]:
    """Press-effect matrix A and target vector B for an instance.

    A is the adjacency matrix with a unit diagonal entry exactly at the
    SIGMA_PLUS vertices: row v is the set of lamps v's button toggles.  B
    flags the lamps that still have to flip, i.e. the complement of
    initially_on.  A press vector u lights every lamp iff A.u = B.  Both
    are in vertex order, for API callers; ``approx.solve_approx`` hands
    ``gf2.solve`` the packed rows instead.  A is read out of the packed
    rows on every call.
    """
    n = inst.n
    masks = [_unmirror(row, n) for row in inst._packed_rows()]
    return BitMat(n, n, masks), BitVec(n, ~inst.initially_on.bits & ((1 << n) - 1))


def simulate_presses(inst: Instance, press: BitVec) -> BitVec:
    """Final lamp states after pressing the flagged buttons (order-free)."""
    if press.n != inst.n:
        raise ValueError(f"press vector length {press.n}, expected {inst.n}")
    rows = inst._packed_rows()
    toggled = 0
    for v in press.indices():
        toggled ^= rows[v]
    return BitVec(inst.n, inst.initially_on.bits ^ _unmirror(toggled, inst.n))


def is_all_on(state: BitVec) -> bool:
    """True iff every lamp is on (vacuously true for length 0)."""
    return state.bits == (1 << state.n) - 1

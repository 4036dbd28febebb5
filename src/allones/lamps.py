"""Lamp/switch instances, their GF(2) systems, and the solver's answer.

An instance is a simple graph with a lamp and a button on every vertex.
Pressing a SIGMA_PLUS button toggles the vertex's own lamp and all of its
neighbors' lamps; a SIGMA button toggles the neighbors' lamps only.  The
goal is a press set that leaves every lamp on.  ``Solution`` holds such
a press set together with the decomposition behind its bounds.

The instance's linear system A.u = B has one row per vertex v: the
vertices v's button toggles, and whether lamp v is off.  Its rows are
packed in the layout ``gf2.solve``'s elimination reads, so the solve
path uses them as they are; ``gf2._packed_system`` builds them for every
instance, and ``simulate_presses`` and ``build_system`` read them back
in vertex order with ``_unmirror``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from enum import Enum
from operator import index, is_

from .gf2 import (
    BitMat,
    BitVec,
    EchelonDecomposition,
    _packed_endpoints,
    _packed_system,
    _unmirror,
    _upper_pairs,
)


class SwitchType(Enum):
    """Press effect of a vertex's button."""

    SIGMA_PLUS = "+"  # toggles the vertex and its neighbors
    SIGMA = "-"  # toggles the neighbors only


def _clip(text: str | int, width: int = 40) -> str:
    """Text or an integer to echo in a message, cut to width characters and
    '...'.  An integer is cut to 100-odd digits first, so str() takes it."""
    if isinstance(text, int):
        # 0.30103 is log10(2) rounded up, so 100 digits or more stay
        drop = max(0, (abs(text).bit_length() - 1) * 30103 // 100000 - 100)
        text = "-" * (text < 0) + str(abs(text) // 10**drop)
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
                shown = f"{_clip(i, 20)}, {_clip(j, 20)}"
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
        __init__ would raise; it never raises.  Every endpoint must already
        be a non-negative int, as the bulk parser's vertex table guarantees,
        and switches and initially_on must hold n entries.  The graph is
        kept as the packed rows ``gf2._packed_endpoints`` builds and checks.
        """
        rows = _packed_endpoints(n, *_flags(switches, initially_on), ends)
        if rows is None:
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
            self._edges = tuple(_upper_pairs(self._rows, self.n))
        return self._edges

    def _packed_rows(self) -> tuple[int, ...]:
        """The rows of [A | B] as ``gf2._packed_system`` builds them."""
        if self._rows is not None:
            return self._rows
        flags = _flags(self.switches, self.initially_on)
        return tuple(_packed_system(self.n, *flags, self.edges, len(self.edges)))

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


def _flags(switches: Sequence[SwitchType], initially_on: BitVec) -> tuple[bytes, bytes]:
    """Per vertex, a byte each: whether its button toggles its own lamp,
    and whether its lamp is off."""
    plus = bytes(map(is_, switches, [SwitchType.SIGMA_PLUS] * len(switches)))
    return plus, initially_on.to01().encode().translate(_OFF_FLAG)


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

"""Lamp/switch instances, their GF(2) systems, and the solver's answer.

An instance is a simple graph with a lamp and a button on every vertex.
Pressing a SIGMA_PLUS button toggles the vertex's own lamp and all of its
neighbors' lamps; a SIGMA button toggles the neighbors' lamps only.  The
goal is a press set that leaves every lamp on.  ``Solution`` holds such
a press set together with the decomposition behind its bounds.

An instance keeps its switch types and lamp states as the text format's
header strings, in bytes (b"+-+...", b"010...").  Every instance but the
bulk parse's is made by ``Instance._init`` from header bytes its caller
checked and the edges, which it checks.  Its linear system A.u = B has
one row per vertex v: the vertices v's button toggles, and whether lamp
v is off.  Its rows are packed in the layout ``gf2.solve`` reads, so the
solve path uses them as they are; ``gf2._packed_system`` builds them once,
from one translate of each header string, and ``simulate_presses`` and
``build_system`` read them back in vertex order with ``_unmirror``.
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


_SWITCH_OF = {s.value: s for s in SwitchType}

# a header character to the row builder's flag byte (a '+' switch toggles
# its own lamp, and a '0' lamp is off), and a SIGMA_PLUS flag to its character
_FLAG = bytes.maketrans(b"+-01", b"\x01\x00\x01\x00")
_KIND = bytes.maketrans(b"\x01\x00", b"+-")


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

    The read-only ``switches`` and ``initially_on`` build a tuple and a
    BitVec from the header bytes on each read.  The constructor keeps the
    edge tuple, O(edges) space, and the system's packed rows once they are
    first read: the rows a solve builds anyway, about n * n / 8 bytes.  The
    bulk parse path keeps the packed rows alone and derives ``edges`` from
    them on first use.  Either way an instance packs its rows at most once.
    """

    __slots__ = ("n", "_kinds", "_lamps", "_edges", "_rows")

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
            raise ValueError(f"vertex count {_clip(repr(n))} is not an integer") from None
        # before the header bytes are made n long; _init checks it again
        if n < 1:
            raise ValueError("an instance needs at least one vertex")
        kinds = b"+" * n
        if switches is not None:
            switches = tuple(switches)
            if len(switches) != n:
                raise ValueError(f"expected {n} switch types, got {len(switches)}")
            if any(not isinstance(s, SwitchType) for s in switches):
                raise ValueError("switches must be SwitchType values")
            # Enum.value is a Python-level property, so one is_ per vertex instead
            kinds = bytes(map(is_, switches, [SwitchType.SIGMA_PLUS] * n)).translate(_KIND)
        lamps = b"0" * n
        if initially_on is not None:
            if not isinstance(initially_on, BitVec):
                raise ValueError(f"initially_on must be a BitVec, not {type(initially_on).__name__}")
            if initially_on.n != n:
                raise ValueError(f"initially_on has length {initially_on.n}, expected {n}")
            lamps = initially_on.to01().encode()
        self._init(n, edges, kinds, lamps)

    def _init(self, n: int, edges: Iterable[tuple[int, int]], kinds: bytes, lamps: bytes) -> Instance:
        """Fills in and returns self from an int n, the edges and checked header
        bytes (kinds: n of '+'/'-'; lamps: n of '0'/'1'); checks n and the edges."""
        if n < 1:
            raise ValueError("an instance needs at least one vertex")
        canon = []
        seen = set()
        for idx, edge in enumerate(edges):
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise EdgeError(idx, f"edge {_clip(repr(edge))} is not a pair of endpoints") from None
            try:
                # bools and numpy ints become plain ints; floats and strings fail
                i, j = index(i), index(j)
            except TypeError:
                shown = f"{_clip(repr(i), 20)}, {_clip(repr(j), 20)}"
                raise EdgeError(idx, f"edge ({shown}) has a non-integer endpoint") from None
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
        # sorting the list, not the set, keeps an already sorted input cheap
        canon.sort()
        self.n, self._kinds, self._lamps, self._edges, self._rows = n, kinds, lamps, tuple(canon), None
        return self

    @classmethod
    def _from_endpoints(cls, n: int, ends: list[int], kinds: bytes, lamps: bytes) -> Instance | None:
        """The instance on edges (ends[2k], ends[2k + 1]), or None where
        __init__ would raise; it never raises.  Every endpoint must already
        be a non-negative int, as the bulk parser's vertex table guarantees,
        and kinds and lamps valid header strings of n bytes.  The graph is
        kept as the packed rows ``gf2._packed_endpoints`` builds and checks.
        """
        self = cls.__new__(cls)
        self.n, self._kinds, self._lamps, self._edges = n, kinds, lamps, None
        rows = _packed_endpoints(n, *self._flag_bytes(), ends)
        if rows is None:
            return None
        self._rows = tuple(rows)
        return self

    def _flag_bytes(self) -> tuple[bytes, bytes]:
        """Per vertex, a flag byte each: its button toggles its lamp; its lamp is off."""
        return self._kinds.translate(_FLAG), self._lamps.translate(_FLAG)

    @property
    def switches(self) -> tuple[SwitchType, ...]:
        """The switch type of each vertex, in vertex order."""
        return tuple(map(_SWITCH_OF.__getitem__, self._kinds.decode()))

    @property
    def initially_on(self) -> BitVec:
        """The lamps that are on before any press."""
        return BitVec.from01(self._lamps.decode())

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as a sorted tuple of (min, max) pairs."""
        if self._edges is None:
            self._edges = tuple(_upper_pairs(self._rows, self.n))
        return self._edges

    def _packed_rows(self) -> tuple[int, ...]:
        """The rows of [A | B] as ``gf2._packed_system`` builds them, once."""
        if self._rows is None:
            edges = self._edges
            self._rows = tuple(_packed_system(self.n, *self._flag_bytes(), edges, len(edges)))
        return self._rows

    def _key(self) -> tuple:
        return self.n, self._kinds, self._lamps, self.edges

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Instance(n={self.n}, edges={len(self.edges)}, "
            f"switches={self._kinds.decode()!r}, on={self._lamps.decode()!r})"
        )


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

"""Lamp/switch instances and their translation to GF(2) systems.

An instance is a simple graph with a lamp and a button on every vertex.
Pressing a SIGMA_PLUS button toggles the vertex's own lamp and all of its
neighbors' lamps; a SIGMA button toggles the neighbors' lamps only.  The
goal is a press set that leaves every lamp on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .gf2 import BitMat, BitVec, EchelonDecomposition


class SwitchType(Enum):
    """Press effect of a vertex's button."""

    SIGMA_PLUS = "+"  # toggles the vertex and its neighbors
    SIGMA = "-"  # toggles the neighbors only


class EdgeError(ValueError):
    """An edge an instance cannot hold; ``index`` is its position in the input."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


class Instance:
    """A lamp-lighting instance: graph, switch types, initial lamp states.

    Edges are canonicalized to a sorted tuple of (min, max) pairs, so two
    instances describing the same graph compare equal.  Self-loops,
    duplicate edges and out-of-range endpoints are rejected with an
    EdgeError naming the first bad edge in input order.
    """

    __slots__ = ("n", "edges", "switches", "initially_on")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]] = (),
        switches: Optional[Sequence[SwitchType]] = None,
        initially_on: Optional[BitVec] = None,
    ) -> None:
        if n < 1:
            raise ValueError("an instance needs at least one vertex")
        canon = []
        seen = set()
        for idx, (i, j) in enumerate(edges):
            if not (0 <= i < n and 0 <= j < n):
                raise EdgeError(idx, f"edge ({i}, {j}) out of range for {n} vertices")
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
        if initially_on.n != n:
            raise ValueError(
                f"initially_on has length {initially_on.n}, expected {n}"
            )
        self.n = n
        # sorting the list, not the set, keeps an already sorted input cheap
        canon.sort()
        self.edges = tuple(canon)
        self.switches = switches
        self.initially_on = initially_on

    def toggle_masks(self) -> tuple[int, ...]:
        """Packed per-vertex toggle sets: neighbors, plus self for SIGMA_PLUS.

        mask[v] is also row v of the press-effect matrix.
        """
        masks = [
            1 << v if s is SwitchType.SIGMA_PLUS else 0
            for v, s in enumerate(self.switches)
        ]
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

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


@dataclass(frozen=True)
class Certificate:
    """Bound data attached to a press set.

    r/m are the rank and corank of the press-effect matrix; g0/g1 count the
    forced non-presses/presses (zeros/ones of the particular solution over
    the all-zero echelon part).  opt, when present, is the exact minimum.
    """

    r: int
    m: int
    g0: int
    g1: int
    opt: Optional[int] = None


@dataclass(frozen=True)
class Solution:
    """A feasible press set with its certificate.

    decomposition, when set, is the echelon decomposition (basis, parts
    and gamma, all over the vertices) the press set was read from; it takes
    no part in equality.
    """

    press: BitVec
    weight: int
    certificate: Certificate
    decomposition: Optional[EchelonDecomposition] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.weight != self.press.weight:
            raise ValueError("stored weight disagrees with the press vector")
        c = self.certificate
        if c.opt is not None and not c.g1 <= c.opt <= self.weight:
            raise ValueError(f"opt {c.opt} outside [g1={c.g1}, weight={self.weight}]")

    @property
    def n(self) -> int:
        return self.press.n

    @property
    def bound_rank(self) -> int:
        """Guaranteed upper bound: weight <= rank of the system."""
        return self.certificate.r

    @property
    def bound_mixed(self) -> Fraction:
        """Guaranteed upper bound (n + g1 - g0)/2, kept exact."""
        c = self.certificate
        return Fraction(self.n + c.g1 - c.g0, 2)

    def with_opt(self, opt: int) -> "Solution":
        """Attach an exact optimum (validates g1 <= opt <= weight)."""
        return replace(self, certificate=replace(self.certificate, opt=opt))


def build_system(inst: Instance) -> tuple[BitMat, BitVec]:
    """Press-effect matrix A and target vector B for an instance.

    A is the adjacency matrix with a unit diagonal entry exactly at the
    SIGMA_PLUS vertices; B flags the lamps that still have to flip, i.e.
    the complement of initially_on.  A press vector u lights every lamp
    iff A.u = B.
    """
    masks = inst.toggle_masks()
    a = BitMat(inst.n, inst.n, masks)
    b = BitVec(inst.n, ~inst.initially_on.bits & ((1 << inst.n) - 1))
    return a, b


def simulate_presses(inst: Instance, press: BitVec) -> BitVec:
    """Final lamp states after pressing the flagged buttons (order-free)."""
    if press.n != inst.n:
        raise ValueError(f"press vector length {press.n}, expected {inst.n}")
    masks = inst.toggle_masks()
    state = inst.initially_on.bits
    pb = press.bits
    while pb:
        low = pb & -pb
        state ^= masks[low.bit_length() - 1]
        pb ^= low
    return BitVec(inst.n, state)


def is_all_on(state: BitVec) -> bool:
    """True iff every lamp is on (vacuously true for length 0)."""
    return state.bits == (1 << state.n) - 1

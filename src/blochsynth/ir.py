"""
Gate and circuit IR shared by every other module.

Contains:
    - GateKind: Enum of the 16 supported gate kinds
    - Gate: frozen (kind, qubits, angle) application
    - Circuit: frozen ordered gate sequence over n_qubits wires
    - GateSet: decidable membership predicate over gates

Everything here is an immutable value; circuits are built from the
module-level constructors (h(0), cx(0, 1), rz(Angle(1, 4), 0), ...) and
concatenated with `+`.  Z, S, T stay distinct kinds rather than collapsing
to RZ so that gate-set narrowing can pattern-match on named gates; lowering
to RZ happens only in the transpile pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .angles import Angle


class GateKind(Enum):
    """Supported gate kinds: Clifford+T names, the two rotations, and two-qubit gates."""
    I = "i"
    X = "x"
    SX = "sx"
    SXDG = "sxdg"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RZ = "rz"
    RX = "rx"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"

    @property
    def n_qubits(self) -> int:
        return 2 if self in (GateKind.CX, GateKind.CZ, GateKind.SWAP) else 1

    @property
    def takes_angle(self) -> bool:
        return self in (GateKind.RZ, GateKind.RX)

    @property
    def is_symmetric(self) -> bool:
        """True for two-qubit kinds invariant under qubit exchange."""
        return self in (GateKind.CZ, GateKind.SWAP)


# Adjoint pairs; everything else is self-adjoint or handled by angle negation.
_ADJOINT = {
    GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T,
    GateKind.SX: GateKind.SXDG, GateKind.SXDG: GateKind.SX,
}

# Named gates that act as diag(1, e^{i theta}) on their wire.
DIAGONAL_PHASES = {
    GateKind.Z: Angle(1, 1),
    GateKind.S: Angle(1, 2),
    GateKind.SDG: Angle(-1, 2),
    GateKind.T: Angle(1, 4),
    GateKind.TDG: Angle(-1, 4),
}

# Their names in trace-table headers.
DIAGONAL_NAMES = {GateKind.Z: "Z", GateKind.S: "S", GateKind.SDG: "S†",
                  GateKind.T: "T", GateKind.TDG: "T†"}


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: Angle | None = None

    def __post_init__(self):
        if len(self.qubits) != self.kind.n_qubits:
            raise ValueError(f"{self.kind.value} takes {self.kind.n_qubits} qubit(s), got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind.value} requires distinct qubits, got {self.qubits}")
        if self.kind.takes_angle != (self.angle is not None):
            raise ValueError(f"{self.kind.value} {'requires' if self.kind.takes_angle else 'does not take'} an angle")
        if self.kind.is_symmetric and self.qubits[0] > self.qubits[1]:
            object.__setattr__(self, "qubits", (self.qubits[1], self.qubits[0]))

    def adjoint(self) -> "Gate":
        """The inverse gate: named adjoint pair, negated angle, or self."""
        if self.kind in _ADJOINT:
            return Gate(_ADJOINT[self.kind], self.qubits)
        if self.kind.takes_angle:
            return Gate(self.kind, self.qubits, -self.angle)
        return self


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate {g.kind.value} {g.qubits} out of range for {self.n_qubits} qubits")

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.n_qubits != other.n_qubits:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.n_qubits, self.gates + other.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def extended(self, *gates: Gate) -> "Circuit":
        """New circuit with the given gates appended."""
        return Circuit(self.n_qubits, self.gates + tuple(gates))

    def inverse(self) -> "Circuit":
        return circuit_inverse(self)

    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.kind.n_qubits == 2)


def circuit_inverse(c: Circuit) -> Circuit:
    """Reverse the gate order and replace each gate by its adjoint.

    Exact up to a global +-1: a +-pi rotation's adjoint normalizes back to
    +pi (angles are canonical mod 2pi, rotations are 4pi-periodic).
    """
    return Circuit(c.n_qubits, tuple(g.adjoint() for g in reversed(c.gates)))


@dataclass(frozen=True)
class GateSet:
    """A named set of gate kinds, optionally admitting bounded or arbitrary rotations.

    rz_bound is a Fraction of pi: RZ(theta) is a member iff 0 < |theta| <= rz_bound*pi.
    """
    name: str
    kinds: frozenset[GateKind] = frozenset()
    rz_bound: Fraction | None = None
    rz_any: bool = False
    rx_any: bool = False

    def contains(self, g: Gate) -> bool:
        if g.kind == GateKind.RZ:
            if self.rz_any or GateKind.RZ in self.kinds:
                return True
            if self.rz_bound is not None:
                return abs(Fraction(g.angle.num, g.angle.den)) <= self.rz_bound
            return False
        if g.kind == GateKind.RX:
            return self.rx_any or GateKind.RX in self.kinds
        return g.kind in self.kinds

    def contains_all(self, c: Circuit) -> bool:
        return all(self.contains(g) for g in c.gates)


# The Clifford+T vocabulary (named kinds only; RZ/RX excluded by design).
CLIFFORD_T = GateSet("clifford+t", frozenset(
    k for k in GateKind if k not in (GateKind.RZ, GateKind.RX)))


def i(q: int) -> Gate: return Gate(GateKind.I, (q,))
def x(q: int) -> Gate: return Gate(GateKind.X, (q,))
def sx(q: int) -> Gate: return Gate(GateKind.SX, (q,))
def sxdg(q: int) -> Gate: return Gate(GateKind.SXDG, (q,))
def y(q: int) -> Gate: return Gate(GateKind.Y, (q,))
def z(q: int) -> Gate: return Gate(GateKind.Z, (q,))
def h(q: int) -> Gate: return Gate(GateKind.H, (q,))
def s(q: int) -> Gate: return Gate(GateKind.S, (q,))
def sdg(q: int) -> Gate: return Gate(GateKind.SDG, (q,))
def t(q: int) -> Gate: return Gate(GateKind.T, (q,))
def tdg(q: int) -> Gate: return Gate(GateKind.TDG, (q,))
def rz(angle: Angle, q: int) -> Gate: return Gate(GateKind.RZ, (q,), angle)
def rx(angle: Angle, q: int) -> Gate: return Gate(GateKind.RX, (q,), angle)
def cx(control: int, target: int) -> Gate: return Gate(GateKind.CX, (control, target))
def cz(a: int, b: int) -> Gate: return Gate(GateKind.CZ, (a, b))
def swap(a: int, b: int) -> Gate: return Gate(GateKind.SWAP, (a, b))


def diagonal_gate(angle: Angle, q: int) -> Gate:
    """The named diag(1, e^{i angle}) gate when one exists (Z/S/S†/T/T†), else RZ."""
    for kind, phase in DIAGONAL_PHASES.items():
        if phase == angle:
            return Gate(kind, (q,))
    return rz(angle, q)

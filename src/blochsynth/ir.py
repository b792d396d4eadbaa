"""
Gate and circuit IR shared by every other module.

Contains:
    - GateKind: Enum of the 16 supported gate kinds
    - Gate: frozen (kind, qubits, angle) application
    - Circuit: frozen ordered gate sequence over n_qubits wires

Everything here is an immutable value; circuits are built from the
module-level constructors (h(0), cx(0, 1), rz(Angle(1, 4), 0), ...) and
concatenated with `+`.  A gate is validated and hashed once, when it is
built; a circuit range-checks all its gates in one C-level pass.  Z, S, T
stay distinct kinds rather than collapsing to RZ so that circuits and trace
tables keep the named gates; lowering to RZ happens only in the transpile
pass.
"""
from __future__ import annotations

from enum import Enum
from operator import attrgetter

from .angles import Angle, Record, _store


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

    # Plain per-member values, set once below: every Gate check reads them.
    n_qubits: int
    takes_angle: bool
    is_symmetric: bool   # a two-qubit kind invariant under qubit exchange

    __hash__ = object.__hash__   # members are singletons: agrees with ==


for _kind in GateKind:
    _kind.n_qubits = 2 if _kind in (GateKind.CX, GateKind.CZ, GateKind.SWAP) else 1
    _kind.takes_angle = _kind in (GateKind.RZ, GateKind.RX)
    _kind.is_symmetric = _kind in (GateKind.CZ, GateKind.SWAP)
del _kind


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

# The kind of each of those phases, for diagonal_gate.
_DIAGONAL_KINDS = {phase: kind for kind, phase in DIAGONAL_PHASES.items()}

# Their names in trace-table headers.
DIAGONAL_NAMES = {GateKind.Z: "Z", GateKind.S: "S", GateKind.SDG: "S†",
                  GateKind.T: "T", GateKind.TDG: "T†"}


class Gate(Record):
    __slots__ = ("kind", "qubits", "angle", "_hash")
    _fields = ("kind", "qubits", "angle")

    def __init__(self, kind: GateKind, qubits: tuple[int, ...], angle: Angle | None = None):
        if len(qubits) != kind.n_qubits:
            raise ValueError(f"{kind.value} takes {kind.n_qubits} qubit(s), got {qubits}")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{kind.value} requires distinct qubits, got {qubits}")
        if kind.takes_angle != (angle is not None):
            raise ValueError(f"{kind.value} {'requires' if kind.takes_angle else 'does not take'} an angle")
        if kind.is_symmetric and qubits[0] > qubits[1]:
            qubits = (qubits[1], qubits[0])
        _store(self, "kind", kind)
        _store(self, "qubits", qubits)
        _store(self, "angle", angle)
        # Cached, and rebuilt by __reduce__ rather than restored: a hash is
        # only valid in the process that computed it.
        _store(self, "_hash", hash((kind, qubits, angle)))

    def __eq__(self, other):
        if other.__class__ is Gate:
            return (self.kind, self.qubits, self.angle) == (other.kind, other.qubits, other.angle)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def adjoint(self) -> "Gate":
        """The inverse gate: named adjoint pair, negated angle, or self."""
        if self.kind in _ADJOINT:
            return Gate(_ADJOINT[self.kind], self.qubits)
        if self.kind.takes_angle:
            return Gate(self.kind, self.qubits, -self.angle)
        return self


class Circuit(Record):
    __slots__ = _fields = ("n_qubits", "gates")

    def __init__(self, n_qubits: int, gates: tuple[Gate, ...] = ()):
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        gates = tuple(gates)
        if gates and max(map(max, map(attrgetter("qubits"), gates))) >= n_qubits:
            g = next(g for g in gates if max(g.qubits) >= n_qubits)
            raise ValueError(f"gate {g.kind.value} {g.qubits} out of range for {n_qubits} qubits")
        self._set(n_qubits, gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.n_qubits != other.n_qubits:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.n_qubits, self.gates + other.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def inverse(self) -> "Circuit":
        """Reverse the gate order and replace each gate by its adjoint.

        Exact up to a global +-1: a +-pi rotation's adjoint normalizes back to
        +pi (angles are canonical mod 2pi, rotations are 4pi-periodic).
        """
        return Circuit(self.n_qubits, tuple(g.adjoint() for g in reversed(self.gates)))


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
    kind = _DIAGONAL_KINDS.get(angle)
    return rz(angle, q) if kind is None else Gate(kind, (q,))

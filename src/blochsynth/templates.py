"""
Symmetric circuit templates: the palindromic CNOT schedule with interleaved
theta slots that every synthesized gate instantiates.

Wire convention: the target sits on the middle wire (n // 2); the remaining
wires in ascending order are controls c1..c(n-1).  The CNOT schedule is the
recursive reflection

    sched(1 control)  = (c1,)
    sched(m controls) = shift(sched(m-1)) + (c1,) + shift(sched(m-1))

where shift renames c_i -> c_(i+1).  So n=3 runs (c2, c1, c2) and n=4 runs
(c3, c2, c3, c1, c3, c2, c3); the schedule is its own reverse.  Theta slots
interleave: one before each CNOT and one after the last (count = CNOTs + 1).
The AX2 slot, which carries the solver's 0-or-pi correction, exists only for
n >= 3.  An instance opens and closes with H on the target.
"""
from __future__ import annotations

from enum import Enum

from .angles import Angle, Record
from .ir import Circuit, Gate, diagonal_gate, cx, h, z
from .simulator import template_wires


class SlotKind(Enum):
    THETA = "theta"
    CNOT = "cnot"
    AX2 = "ax2"


class Slot(Record):
    __slots__ = _fields = ("kind", "index")

    def __init__(self, kind: SlotKind, index: int = 0):
        self._set(kind, index)   # index: theta or control number (both 1-based); 0 otherwise


class Template(Record):
    __slots__ = _fields = ("n_qubits", "control_wires", "target_wire", "slots")

    def __init__(self, n_qubits: int, control_wires: tuple[int, ...], target_wire: int,
                 slots: tuple[Slot, ...]):
        self._set(n_qubits, control_wires, target_wire, slots)

    @property
    def schedule(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.slots if s.kind == SlotKind.CNOT)

    @property
    def n_cnots(self) -> int:
        return len(self.schedule)

    @property
    def n_thetas(self) -> int:
        return self.n_cnots + 1

    def wire_of_control(self, control: int) -> int:
        return self.control_wires[control - 1]


def cnot_schedule(n: int) -> tuple[int, ...]:
    """Control ids (1-based) in firing order for the n-qubit template."""
    if n < 2:
        raise ValueError("schedule needs at least one control")
    sched = (1,)
    for _ in range(n - 2):
        shifted = tuple(c + 1 for c in sched)
        sched = shifted + (1,) + shifted
    return sched


def make_template(n: int) -> Template:
    """The symmetric n-qubit skeleton, 2 <= n <= 5."""
    if not 2 <= n <= 5:
        raise ValueError(f"template supports 2..5 qubits, got {n}")
    controls, target = template_wires(n)
    slots = []
    for k, control in enumerate(cnot_schedule(n), start=1):
        slots.append(Slot(SlotKind.THETA, k))
        slots.append(Slot(SlotKind.CNOT, control))
    slots.append(Slot(SlotKind.THETA, len(cnot_schedule(n)) + 1))
    if n >= 3:
        slots.append(Slot(SlotKind.AX2))
    return Template(n, controls, target, tuple(slots))


def slot_masks(template: Template) -> tuple[int, ...]:
    """Per-theta-slot control parity masks.

    Bit i-1 of mask_j is the parity of CNOTs from control i that fire after
    theta slot j, so the slot's sign under control assignment x is
    (-1)^popcount(x & mask_j).  For every template here the masks are
    pairwise distinct and enumerate the full 2^(n-1) character group, which
    is what makes the theta system uniquely solvable per AX2 choice.
    """
    sched = template.schedule
    masks = []
    for j in range(template.n_thetas):
        mask = 0
        for control in sched[j:]:
            mask ^= 1 << (control - 1)
        masks.append(mask)
    return tuple(masks)


def instantiate(template: Template, thetas: tuple[Angle, ...],
                ax2_phase: Angle | None = None) -> Circuit:
    """Fill the skeleton's slots between two H on the target; return the circuit.

    Thetas land as named gates (T, T†, S, S†, Z) when the angle matches one,
    RZ otherwise; zero thetas and an identity AX2 emit nothing.
    """
    if len(thetas) != template.n_thetas:
        raise ValueError(f"need {template.n_thetas} thetas, got {len(thetas)}")
    tgt = template.target_wire
    gates: list[Gate] = [h(tgt)]
    for slot in template.slots:
        if slot.kind == SlotKind.THETA:
            angle = thetas[slot.index - 1]
            if not angle.is_zero():
                gates.append(diagonal_gate(angle, tgt))
        elif slot.kind == SlotKind.CNOT:
            gates.append(cx(template.wire_of_control(slot.index), tgt))
        elif slot.kind == SlotKind.AX2:
            if ax2_phase is not None and not ax2_phase.is_zero():
                gates.append(z(tgt))
    gates.append(h(tgt))
    return Circuit(template.n_qubits, tuple(gates))

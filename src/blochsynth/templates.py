"""
Symmetric circuit templates.  A template is its palindromic CNOT schedule;
the theta slots and the AX2 slot are implied by it.

Wire convention: the target sits on the middle wire (n // 2); the remaining
wires in ascending order are controls c1..c(n-1).  The CNOT schedule is the
recursive reflection

    sched(1 control)  = (c1,)
    sched(m controls) = shift(sched(m-1)) + (c1,) + shift(sched(m-1))

where shift renames c_i -> c_(i+1).  So n=3 runs (c2, c1, c2) and n=4 runs
(c3, c2, c3, c1, c3, c2, c3); the schedule is its own reverse.  Theta slot j
precedes CNOT j, one more follows the last, and for n >= 3 the AX2 slot (the
solver's 0-or-pi correction) ends the run, all between two H on the target.

Instances share their gates: a template's H, Z and CX gates, and its
diagonal gate for each theta, are built the first time an instance needs
them and reused by every later instance in the process.
"""
from __future__ import annotations

from functools import lru_cache

from .angles import TURN, Angle, Record, to_units
from .ir import Circuit, Gate, diagonal_gate, cx, h, z
from .simulator import template_wires


class Template(Record):
    __slots__ = _fields = ("n_qubits", "control_wires", "target_wire", "schedule")

    def __init__(self, n_qubits: int, control_wires: tuple[int, ...], target_wire: int,
                 schedule: tuple[int, ...]):
        self._set(n_qubits, control_wires, target_wire, schedule)

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
    return Template(n, *template_wires(n), cnot_schedule(n))


def slot_masks(template: Template) -> tuple[int, ...]:
    """Per-theta-slot control parity masks: the suffix XORs of the schedule.

    Bit i-1 of mask_j is the parity of CNOTs from control i that fire after
    theta slot j, so the slot's sign under control assignment x is
    (-1)^popcount(x & mask_j).  For every template here the masks are
    pairwise distinct and enumerate the full 2^(n-1) character group, which
    is what makes the theta system uniquely solvable per AX2 choice.
    """
    masks = [0]
    for control in reversed(template.schedule):
        masks.append(masks[-1] ^ 1 << (control - 1))
    return tuple(reversed(masks))


@lru_cache(maxsize=64)   # make_template has four values; the rest is headroom
def _gates_of(template: Template) -> tuple[Gate, Gate, tuple[Gate | None, ...], list]:
    """(H, Z, each slot's CX then None, the diagonal gate per pi/64 unit count).

    Keyed by the template's value.  The CX gates are built with the table,
    one per control, so that the slots of one control share a gate; the
    diagonal gate of a unit count when an instance first needs it.
    """
    tgt = template.target_wire
    cx_of = {c: cx(template.wire_of_control(c), tgt) for c in set(template.schedule)}
    return h(tgt), z(tgt), tuple(cx_of[c] for c in template.schedule) + (None,), [None] * TURN


def instantiate(template: Template, thetas: tuple[Angle, ...],
                ax2_phase: Angle | None = None) -> Circuit:
    """Fill the skeleton's slots between two H on the target; return the circuit.

    Thetas land as named gates (T, T†, S, S†, Z) when the angle matches one,
    RZ otherwise; zero thetas and an identity AX2 emit nothing.  The gates
    come from the template's table, so equal instances share gate objects.
    """
    if len(thetas) != template.n_thetas:
        raise ValueError(f"need {template.n_thetas} thetas, got {len(thetas)}")
    h_gate, z_gate, cxs, diagonals = _gates_of(template)
    gates: list[Gate] = [h_gate]
    for angle, cx_gate in zip(thetas, cxs):
        units = to_units(angle) % TURN
        if units:
            gate = diagonals[units]
            if gate is None:
                gate = diagonals[units] = diagonal_gate(angle, template.target_wire)
            gates.append(gate)
        if cx_gate is not None:
            gates.append(cx_gate)
    if template.n_qubits >= 3 and ax2_phase is not None and not ax2_phase.is_zero():
        gates.append(z_gate)
    gates.append(h_gate)
    return Circuit(template.n_qubits, tuple(gates))

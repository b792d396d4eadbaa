"""
Theta selection and the operator library.

A template instance applies, for control assignment x, the equator phase

    sum_j s_j(x) * theta_j + ax2      with s_j(x) = (-1)^popcount(x & mask_j)

so designing a gate means solving this linear system mod 2pi against the
target phases (pi * f(x) for Boolean operators, +-pi/2 * f(x) for CV/CV†).
Because the slot masks enumerate the full character group, the system has
exactly one solution per AX2 choice; the solver still *enumerates* the
narrowed candidate set in a fixed documented order (slot 1 cycling fastest,
angles descending, AX2 = 0 tried before pi) so that ties between the AX2
branches resolve deterministically, and falls back to the closed-form
character transform when the narrowed set cannot express the solution.

All arithmetic runs in integer units of pi/64 (mod 128): exact, no floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .angles import ZERO, PI, Angle
from .ir import (Circuit, GateKind, GateSet, DIAGONAL_NAMES, cx,
                 diagonal_gate)
from .simulator import (boolean_action, equiv_up_to_relative_phase,
                        permutation_unitary, reference_unitary,
                        template_wires, unitary_of, TruthTable)
from .templates import SlotKind, Template, instantiate, make_template, slot_masks

_UNIT_DEN = 64          # angles live in integer units of pi/64
_MOD = 2 * _UNIT_DEN    # mod 2pi

SEGMENTS = frozenset({"semicircles", "quadrants", "octants"})


class UnsatisfiableError(ValueError):
    """No theta assignment exists in the narrowed gate set."""


class SynthVerificationError(RuntimeError):
    """A synthesized circuit failed its own post-hoc verification (a bug)."""


@dataclass(frozen=True)
class BooleanSpec:
    n_controls: int
    outputs: tuple[bool, ...]

    def __post_init__(self):
        if len(self.outputs) != 2 ** self.n_controls:
            raise ValueError(f"need {2 ** self.n_controls} outputs")

    @classmethod
    def named(cls, kind: str, n_controls: int) -> "BooleanSpec":
        op = OPERATORS[kind]
        if op.inverted is None:
            raise ValueError(f"{kind} is not a Boolean operator")
        return cls(n_controls, op.outputs(n_controls))

    def truth_table(self) -> TruthTable:
        return TruthTable(self.n_controls, self.outputs)


@dataclass(frozen=True)
class NarrowingResult:
    ctg3: GateSet
    seg1: frozenset[str]
    candidates: tuple[Angle, ...]   # descending; the solver's enumeration alphabet


def narrow_gate_set(n_cnot: int) -> NarrowingResult:
    """The gate-set narrowing case table keyed on the template's CNOT count."""
    if n_cnot < 1:
        raise ValueError("need at least one CNOT")
    if n_cnot == 1:
        return NarrowingResult(
            GateSet("CTG3", frozenset({GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG})),
            frozenset({"quadrants", "octants"}),
            (Angle(1, 2), Angle(1, 4), Angle(-1, 4), Angle(-1, 2)))
    if n_cnot == 2:
        # Dyadic discretization of |theta| <= pi/3: step pi/4, leaving +-pi/4.
        return NarrowingResult(
            GateSet("CTG3", frozenset(), rz_bound=Fraction(1, 3)),
            SEGMENTS,
            (Angle(1, 4), Angle(-1, 4)))
    if n_cnot == 3:
        return NarrowingResult(
            GateSet("CTG3", frozenset({GateKind.T, GateKind.TDG})),
            frozenset({"octants"}),
            (Angle(1, 4), Angle(-1, 4)))
    k = 1
    while 2 ** k < n_cnot + 1:
        k += 1
    return NarrowingResult(
        GateSet("CTG3", frozenset(), rz_bound=Fraction(1, n_cnot + 1)),
        SEGMENTS,
        (Angle(1, 2 ** k), Angle(-1, 2 ** k)))


class Ax2(Enum):
    I = "I"
    Z = "Z"
    MINUS_Z = "-Z"

    @property
    def phase(self) -> Angle:
        return ZERO if self == Ax2.I else PI


@dataclass(frozen=True)
class ThetaAssignment:
    thetas: tuple[Angle, ...]
    ax2: Ax2 = Ax2.I
    sp1: GateKind = GateKind.H
    sp2: GateKind = GateKind.H


def _units(a: Angle) -> int:
    return a.num * (_UNIT_DEN // a.den)


def _sign_matrix(masks: tuple[int, ...], n_rows: int) -> np.ndarray:
    s = np.empty((n_rows, len(masks)), dtype=np.int64)
    for x in range(n_rows):
        for j, mask in enumerate(masks):
            s[x, j] = -1 if bin(x & mask).count("1") % 2 else 1
    return s


def solve_phase_system(template: Template, targets: tuple[Angle, ...],
                       widen: bool = False) -> tuple[tuple[Angle, ...], Angle]:
    """Return (thetas, ax2_phase) with sum_j s_j(x) theta_j + ax2 = targets[x] mod 2pi.

    Enumerates the narrowed candidate set first (slot 1 fastest, angles
    descending, ax2 0-then-pi); when that fails, inverts the system through
    the character transform and accepts the result if it stays dyadic and,
    unless widen is set, inside the narrowed set (zero thetas allowed as
    identity slots).
    """
    masks = slot_masks(template)
    n_rows = 2 ** (template.n_qubits - 1)
    if len(targets) != n_rows:
        raise ValueError(f"need {n_rows} target phases")
    sign = _sign_matrix(masks, n_rows)
    target_units = np.array([_units(a) for a in targets], dtype=np.int64)
    ax_options = (0, _UNIT_DEN) if template.n_qubits >= 3 else (0,)

    narrowing = narrow_gate_set(template.n_cnots)
    cand_units = np.array([_units(a) for a in narrowing.candidates], dtype=np.int64)
    n_cand, n_slots = len(cand_units), template.n_thetas

    if n_cand ** n_slots <= 1 << 20:
        idx = np.arange(n_cand ** n_slots, dtype=np.int64)
        digits = np.empty((idx.size, n_slots), dtype=np.int64)
        for j in range(n_slots):
            digits[:, j] = (idx // n_cand ** j) % n_cand     # slot 1 cycles fastest
        values = cand_units[digits]
        sums = values @ sign.T % _MOD
        hits = {a: np.all((sums + a) % _MOD == target_units % _MOD, axis=1)
                for a in ax_options}
        combined = np.zeros(idx.size, dtype=bool)
        for a in ax_options:
            combined |= hits[a]
        if combined.any():
            first = int(np.argmax(combined))
            ax_units = next(a for a in ax_options if hits[a][first])
            thetas = tuple(narrowing.candidates[d] for d in digits[first])
            return thetas, Angle(ax_units, _UNIT_DEN)

    # Character transform: theta_j = (1/2^m) sum_x chi_j(x) (target_x - ax2).
    for ax_units in ax_options:
        rhs = (target_units - ax_units) % _MOD
        rhs = np.where(rhs > _UNIT_DEN, rhs - _MOD, rhs)       # representative in (-pi, pi]
        numer = sign.T @ rhs
        if np.any(numer % n_rows):
            continue
        units = numer // n_rows
        thetas = tuple(Angle(int(u), _UNIT_DEN) for u in units)
        check = (np.array([_units(t) for t in thetas]) @ sign.T + ax_units) % _MOD
        if not np.array_equal(check, target_units % _MOD):
            continue
        if not widen:
            allowed = set(narrowing.candidates) | {ZERO}
            if any(t not in allowed for t in thetas):
                continue
        return thetas, Angle(ax_units, _UNIT_DEN)
    raise UnsatisfiableError(
        f"unsatisfiable in CTG3 (candidates {[str(c) for c in narrowing.candidates]})")


def theta_system_holds(template: Template, thetas: tuple[Angle, ...],
                       ax2_phase: Angle, targets: tuple[Angle, ...]) -> bool:
    """Exact-arithmetic check of the phase system (used as a soundness oracle)."""
    masks = slot_masks(template)
    for x, want in enumerate(targets):
        total = ax2_phase
        for j, theta in enumerate(thetas):
            sign = -1 if bin(x & masks[j]).count("1") % 2 else 1
            total = total + (theta if sign > 0 else -theta)
        if not total.equals_mod_2pi(want):
            return False
    return True


def solve_thetas(template: Template, spec: BooleanSpec, widen: bool = False) -> ThetaAssignment:
    """Solve for a Boolean operator's thetas; AX2 sign follows the f(0..0) rule."""
    targets = tuple(PI if out else ZERO for out in spec.outputs)
    thetas, ax2_phase = solve_phase_system(template, targets, widen=widen)
    if ax2_phase.is_zero():
        ax2 = Ax2.I
    else:
        # -Z exactly when the all-zero input is a solution: the pi correction
        # then rides on the |0...0> branch and flips the global sign.
        ax2 = Ax2.MINUS_Z if spec.outputs[0] else Ax2.Z
    return ThetaAssignment(thetas, ax2)


@dataclass(frozen=True)
class SynthResult:
    kind: str
    n_qubits: int
    circuit: Circuit
    template: Template | None
    assignment: ThetaAssignment | None
    notes: tuple[str, ...] = ()

    def trace_labels(self) -> tuple[str, ...]:
        """Column labels for the trace table, one per emitted target event."""
        if (self.template is None or self.assignment is None
                or self.kind in ("fredkin", "miller")):
            raise ValueError(f"{self.kind} has no single-template trace")
        labels = []
        for slot in self.template.slots:
            if slot.kind == SlotKind.THETA:
                angle = self.assignment.thetas[slot.index - 1]
                if not angle.is_zero():
                    name = DIAGONAL_NAMES.get(diagonal_gate(angle, 0).kind, str(angle))
                    labels.append(f"θ{slot.index}({name})")
            elif slot.kind == SlotKind.CNOT:
                labels.append(f"CNOT(c{slot.index})")
            elif slot.kind == SlotKind.AX2 and self.assignment.ax2 != Ax2.I:
                labels.append(f"AX2({self.assignment.ax2.value})")
        return tuple(labels)


# Miller permutation on three bits (bit i = wire i): the 4-cycle over the
# states with two or more set bits, everything else fixed.
MILLER_PERMUTATION = (0, 1, 2, 7, 4, 3, 5, 6)


def synth(kind: str, n: int) -> Circuit:
    """Synthesize a named operator on n qubits (target on the middle wire)."""
    return synth_detailed(kind, n).circuit


def synth_detailed(kind: str, n: int) -> SynthResult:
    kind = kind.lower()
    result = operator(kind, n).design(kind, n)
    reason = check(kind, n, result.circuit)
    if reason:
        raise SynthVerificationError(f"{kind}({n}): {reason}")
    return result


def synth_table(outputs: tuple[bool, ...]) -> SynthResult:
    """Synthesize an explicit truth table (widening the angle set if needed)."""
    n_controls = (len(outputs) - 1).bit_length()
    if len(outputs) != 2 ** n_controls:
        raise ValueError("truth table length must be a power of two")
    spec = BooleanSpec(n_controls, tuple(bool(o) for o in outputs))
    template = make_template(n_controls + 1)
    try:
        assignment = solve_thetas(template, spec)
    except UnsatisfiableError:
        assignment = solve_thetas(template, spec, widen=True)
    circuit = instantiate(template, assignment.thetas, assignment.ax2.phase)
    result = SynthResult("table", n_controls + 1, circuit, template, assignment)
    if boolean_action(circuit, n_controls) != spec.truth_table():
        raise SynthVerificationError("synthesized table does not match its spec")
    return result


def _synth_boolean(kind: str, n: int) -> SynthResult:
    template = make_template(n)
    spec = BooleanSpec.named(kind, n - 1)
    assignment = solve_thetas(template, spec)
    circuit = instantiate(template, assignment.thetas, assignment.ax2.phase)
    return SynthResult(kind, n, circuit, template, assignment)


def _synth_cv(tau: Angle, kind: str, n: int) -> SynthResult:
    template = make_template(n)
    targets = tuple(tau if x == 2 ** (n - 1) - 1 else ZERO for x in range(2 ** (n - 1)))
    try:
        thetas, ax2_phase = solve_phase_system(template, targets)
    except UnsatisfiableError:
        thetas, ax2_phase = solve_phase_system(template, targets, widen=True)
    assignment = ThetaAssignment(thetas, Ax2.I if ax2_phase.is_zero() else Ax2.Z)
    circuit = instantiate(template, thetas, ax2_phase)
    return SynthResult(kind, n, circuit, template, assignment)


def _and_core(n: int) -> tuple[Circuit, Template, ThetaAssignment]:
    template = make_template(n)
    assignment = solve_thetas(template, BooleanSpec(n - 1, _AND.outputs(n - 1)))
    return instantiate(template, assignment.thetas, assignment.ax2.phase), template, assignment


def _synth_fredkin(kind: str, n: int) -> SynthResult:
    # Controlled swap of the target wire with the wire above it: conjugating
    # the AND core's target flip by CX turns the flip into an exchange.
    core, template, assignment = _and_core(n)
    target = template.target_wire
    bridge = cx(target, target + 1)
    circuit = Circuit(n, (bridge,) + core.gates + (bridge,))
    note = f"CX({target},{target + 1}) sandwich around the {n}-qubit AND core"
    return SynthResult(kind, n, circuit, template, assignment, (note,))


def _synth_miller(kind: str, n: int) -> SynthResult:
    # Three AND cores on wires (0,1,2) interleaved with four CNOTs; the word
    # was found by breadth-first search over chain-adjacent generators and
    # realizes the Miller permutation with 3*3 + 4 = 13 two-qubit gates.
    core, template, assignment = _and_core(3)
    word = [cx(1, 2)] + list(core.gates) + [cx(1, 2)] + list(core.gates) \
         + [cx(1, 0)] + list(core.gates) + [cx(1, 0)]
    circuit = Circuit(n, tuple(word))
    note = "CX(1,2)/CX(1,0) conjugated AND cores realizing the Miller permutation"
    return SynthResult(kind, n, circuit, template, assignment, (note,))


def fredkin_permutation(n: int) -> tuple[int, ...]:
    """Controlled exchange of the target wire with the wire above it."""
    controls, target = template_wires(n)
    low, high = target, target + 1
    perm = []
    for index in range(2 ** n):
        active = all(index >> w & 1 for w in controls if w != high)
        if active and (index >> low & 1) != (index >> high & 1):
            index ^= (1 << low) | (1 << high)
        perm.append(index)
    return tuple(perm)


def miller_permutation(n: int) -> tuple[int, ...]:
    """The three-bit Miller action on wires (0,1,2); higher wires idle."""
    return tuple(MILLER_PERMUTATION[index & 7] | (index & ~7) for index in range(2 ** n))


@dataclass(frozen=True)
class Operator:
    """One named operator: its sizes, template design and exact target.

    A Boolean operator is the AND of its control literals, complemented
    when `complemented`: `inverted` slices out the controls c1..ck read
    inverted, and its target XORs that function into the target wire.  Every
    other operator leaves `inverted` None and gives its target `unitary`.
    """
    sizes: range | tuple[int, ...]
    design: Callable[[str, int], SynthResult]
    unitary: Callable[[int], np.ndarray] | None = None
    inverted: slice | None = None
    complemented: bool = False

    def outputs(self, n_controls: int) -> tuple[bool, ...]:
        """The Boolean truth table, row x = control assignment (c1 = bit 0)."""
        ones = 2 ** n_controls - 1
        flip = sum(1 << i for i in range(n_controls)[self.inverted])
        return tuple((x ^ flip == ones) != self.complemented for x in range(ones + 1))

    def target(self, n: int) -> np.ndarray:
        """The exact target unitary on n qubits."""
        if self.inverted is None:
            return self.unitary(n)
        controls, target = template_wires(n)
        outputs = self.outputs(n - 1)
        return permutation_unitary(tuple(
            index ^ (outputs[sum((index >> w & 1) << i for i, w in enumerate(controls))] << target)
            for index in range(2 ** n)))


_AND = Operator(range(2, 6), _synth_boolean, inverted=slice(0))

OPERATORS: dict[str, Operator] = {
    "toffoli": _AND,
    "and": _AND,
    "nand": Operator(range(2, 6), _synth_boolean, inverted=slice(0), complemented=True),
    "or": Operator(range(2, 6), _synth_boolean, inverted=slice(None), complemented=True),
    "nor": Operator(range(2, 6), _synth_boolean, inverted=slice(None)),
    "implication": Operator(range(3, 4), _synth_boolean, inverted=slice(1, 2), complemented=True),
    "inhibition": Operator(range(3, 4), _synth_boolean, inverted=slice(1, 2)),
    "cv": Operator((2, 4), partial(_synth_cv, Angle(1, 2)), partial(reference_unitary, "cv")),
    "cvdg": Operator((2, 4), partial(_synth_cv, Angle(-1, 2)), partial(reference_unitary, "cvdg")),
    "fredkin": Operator((3, 4), _synth_fredkin,
                        lambda n: permutation_unitary(fredkin_permutation(n))),
    "miller": Operator((3, 4), _synth_miller,
                       lambda n: permutation_unitary(miller_permutation(n))),
}

OPERATOR_RANGES = {kind: op.sizes for kind, op in OPERATORS.items()}


def operator(kind: str, n: int) -> Operator:
    """The registry entry for kind, after checking that it supports n qubits."""
    op = OPERATORS.get(kind)
    if op is None:
        raise ValueError(f"unknown operator {kind!r} (choose from {sorted(OPERATORS)})")
    if n not in op.sizes:
        raise ValueError(f"{kind} supports n in {list(op.sizes)}, got {n}")
    return op


def check(kind: str, n: int, circuit: Circuit) -> str:
    """Why circuit does not realize kind on n qubits; empty when it does.

    Boolean operators are checked by truth table, all others against their
    target unitary up to relative phase.
    """
    op = OPERATORS[kind]
    if n not in op.sizes:
        return f"{kind} supports n in {list(op.sizes)}"
    if circuit.n_qubits != n:
        return f"circuit has {circuit.n_qubits} qubits, expected {n}"
    if op.inverted is None:
        if equiv_up_to_relative_phase(unitary_of(circuit), op.target(n)):
            return ""
        return "unitary does not match the operator up to relative phase"
    try:
        table = boolean_action(circuit, n - 1)
    except ValueError as exc:
        return str(exc)
    return "" if table.outputs == op.outputs(n - 1) else "truth table mismatch"

"""
Theta selection and the operator library.

A template instance applies, for control assignment x, the equator phase

    sum_j s_j(x) * theta_j + ax2      with s_j(x) = (-1)^popcount(x & mask_j)

so designing a gate means solving this linear system mod 2pi against the
target phases (pi * f(x) for Boolean operators, +-pi/2 * f(x) for CV/CV†).
Because the slot masks enumerate the full character group, the character
(Walsh) transform of the target phases solves it in closed form, once per
AX2 choice: theta_j is entry mask_j of the fast Walsh-Hadamard transform
of the targets, and a second transform checks the solution.  Between the
two branches the solver prefers a solution that lies wholly in the narrowed
candidate set, and among those the one that comes first in a fixed order
(slot 1 cycling fastest over the descending candidates); otherwise it takes
the first branch (AX2 = 0, then pi) whose thetas stay in the candidates or
zero, or are any dyadic angle when widened.

All arithmetic runs on ints in units of pi/64 (mod 128): no floats, no matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable

from .angles import ZERO, PI, Angle
from .ir import (Circuit, GateKind, GateSet, DIAGONAL_NAMES, cx,
                 diagonal_gate)
# perfbench/tracing.py wraps these two names here, so they stay importable.
from .simulator import boolean_action, unitary_of  # noqa: F401
from .simulator import (Columns, TruthTable, permutation_columns, phases_match,
                        reference_columns, template_wires, unitary_columns)
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
    candidates: tuple[Angle, ...]   # descending; solutions inside them win, in this order


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


def _walsh(v: list[int]) -> list[int]:
    """In-place unnormalised fast Walsh-Hadamard transform: v[k] <- sum_x (-1)^|x & k| v[x]."""
    h = 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            for j in range(i, i + h):
                v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
        h *= 2
    return v


def solve_phase_system(template: Template, targets: tuple[Angle, ...],
                       widen: bool = False) -> tuple[tuple[Angle, ...], Angle]:
    """Return (thetas, ax2_phase) with sum_j s_j(x) theta_j + ax2 = targets[x] mod 2pi.

    Inverts the system through the character transform once per AX2 branch
    and keeps each branch's solution that checks exactly.  Solutions wholly
    inside the narrowed candidates win, the lowest enumeration index
    sum_j digit_j * |candidates|^j first (digit_j = the position of theta_j
    in the descending candidates).  Otherwise the first branch (ax2 0, then
    pi) whose thetas are candidates or zero (identity slots) is returned, or
    with widen set any dyadic solution.
    """
    masks = slot_masks(template)
    n_rows = 2 ** (template.n_qubits - 1)
    if len(targets) != n_rows:
        raise ValueError(f"need {n_rows} target phases")
    want = [_units(a) % _MOD for a in targets]
    cands = narrow_gate_set(template.n_cnots).candidates
    digit = {_units(c) % _MOD: i for i, c in enumerate(cands)}

    solutions = []
    for ax_units in (0, _UNIT_DEN) if template.n_qubits >= 3 else (0,):
        # Character transform: theta_j = (1/2^m) sum_x chi_j(x) (target_x - ax2),
        # each target_x - ax2 taken in (-pi, pi].
        numer = _walsh([_UNIT_DEN - (_UNIT_DEN + ax_units - w) % _MOD for w in want])
        if any(numer[mask] % n_rows for mask in masks):
            continue
        units = [numer[mask] // n_rows for mask in masks]
        # Exact back-check: the transform of the per-mask sums is sign @ units.
        coeffs = [0] * n_rows
        for mask, u in zip(masks, units):
            coeffs[mask] += u
        if all((total + ax_units) % _MOD == w for total, w in zip(_walsh(coeffs), want)):
            solutions.append(([u % _MOD for u in units], ax_units))

    # Enumeration index of an all-candidate solution: slot 1 cycles fastest
    # over the descending candidates.
    narrow = {sum(digit[u] * len(cands) ** j for j, u in enumerate(units)): (units, ax_units)
              for units, ax_units in solutions if all(u in digit for u in units)}
    allowed = [s for s in solutions if widen or all(u in digit or u == 0 for u in s[0])]
    if not narrow and not allowed:
        raise UnsatisfiableError(
            f"unsatisfiable in CTG3 (candidates {[str(c) for c in cands]})")
    units, ax_units = narrow[min(narrow)] if narrow else allowed[0]
    return tuple(Angle(u, _UNIT_DEN) for u in units), Angle(ax_units, _UNIT_DEN)


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
    template: Template
    assignment: ThetaAssignment
    notes: tuple[str, ...] = ()

    def trace_labels(self) -> tuple[str, ...]:
        """Column labels for the trace table, one per emitted target event."""
        if self.kind in ("fredkin", "miller"):
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
    other operator leaves `inverted` None and gives its target's sparse
    `columns`.
    """
    sizes: range | tuple[int, ...]
    design: Callable[[str, int], SynthResult]
    columns: Callable[[int], Columns] | None = None
    inverted: slice | None = None
    complemented: bool = False

    def outputs(self, n_controls: int) -> tuple[bool, ...]:
        """The Boolean truth table, row x = control assignment (c1 = bit 0)."""
        ones = 2 ** n_controls - 1
        flip = sum(1 << i for i in range(n_controls)[self.inverted])
        return tuple((x ^ flip == ones) != self.complemented for x in range(ones + 1))

    def target(self, n: int) -> Columns:
        """The exact target unitary on n qubits, as sparse columns."""
        if self.inverted is None:
            return self.columns(n)
        controls, target = template_wires(n)
        outputs = self.outputs(n - 1)
        return permutation_columns(tuple(
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
    "cv": Operator((2, 4), partial(_synth_cv, Angle(1, 2)), partial(reference_columns, "cv")),
    "cvdg": Operator((2, 4), partial(_synth_cv, Angle(-1, 2)), partial(reference_columns, "cvdg")),
    "fredkin": Operator((3, 4), _synth_fredkin,
                        lambda n: permutation_columns(fredkin_permutation(n))),
    "miller": Operator((3, 4), _synth_miller,
                       lambda n: permutation_columns(miller_permutation(n))),
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
        if phases_match(unitary_columns(circuit), op.target(n), n, per_column=True, tol=1e-9):
            return ""
        return "unitary does not match the operator up to relative phase"
    try:
        table = boolean_action(circuit, n - 1)
    except ValueError as exc:
        return str(exc)
    return "" if table.outputs == op.outputs(n - 1) else "truth table mismatch"

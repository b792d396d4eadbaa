"""
Equator phase tracker: the analytical design-time oracle.

Once the first H puts the target on the Bloch equator, every admissible
target event acts on the single phase of (|0> + e^{i phase}|1>)/sqrt(2):

    Z-family gate of angle theta  ->  phase += theta
    CNOT with control bit 1       ->  phase := -phase   (global phase dropped)
    CNOT with control bit 0       ->  no-op (still emits a trace point)
    CZ with control bit 1         ->  phase += pi
    second H                      ->  off the equator: phase 0 -> |0>, pi -> |1>

The tracker walks a concrete circuit (not a template), so it doubles as an
independent check that instantiation preserved the design: its Boolean
verdict must match full statevector simulation on every control input.
"""
from __future__ import annotations

from dataclasses import dataclass

from .angles import ZERO, PI, Angle
from .ir import Circuit, GateKind, DIAGONAL_NAMES, DIAGONAL_PHASES

# Rendering constants: en dash for inactive-CNOT cells, kets for outputs.
DASH = "–"
KET_0, KET_1 = "|0⟩", "|1⟩"


class TrackError(ValueError):
    """The circuit is not equator-trackable."""


@dataclass(frozen=True)
class PhasePoint:
    phase: Angle

    def __str__(self) -> str:
        return self.phase.pi_string()


@dataclass(frozen=True)
class TraceEvent:
    label: str           # "θ(t)", "CNOT(2)", "AX2", ...
    point: PhasePoint
    applied: bool        # False only for a control-off CNOT/CZ


@dataclass(frozen=True)
class Trace:
    controls: int                   # bitmask, bit i-1 = control_i
    events: tuple[TraceEvent, ...]
    final_phase: Angle
    closed: bool                    # second H seen
    output: bool | None             # None when final phase is not 0 or pi

    @property
    def points(self) -> tuple[PhasePoint, ...]:
        return tuple(e.point for e in self.events)


def _control_mask(controls: int | str, n_controls: int) -> int:
    """Accept an int mask or a ket-style string '10' (leftmost = highest control)."""
    if isinstance(controls, str):
        bits = controls.replace("|", "").replace("⟩", "").replace(">", "").split()
        text = "".join(bits)
        if len(text) != n_controls or set(text) - {"0", "1"}:
            raise TrackError(f"control string {controls!r} needs {n_controls} bits")
        return int(text, 2)
    if not 0 <= controls < 2 ** n_controls:
        raise TrackError(f"control mask {controls} out of range for {n_controls} controls")
    return controls


def trace(c: Circuit, controls: int | str, target: int | None = None) -> Trace:
    """Track the target's equator phase through the circuit for one control input."""
    if target is None:
        target = next((g.qubits[0] for g in c.gates if g.kind == GateKind.H), None)
        if target is None:
            raise TrackError("no H gate found; cannot locate the target wire")
    control_of = {w: i + 1 for i, w in enumerate(w for w in range(c.n_qubits) if w != target)}
    mask = _control_mask(controls, c.n_qubits - 1)

    phase = ZERO
    on_equator = False
    closed = False
    events: list[TraceEvent] = []
    for g in c.gates:
        if target not in g.qubits:
            if g.kind == GateKind.I:
                continue
            raise TrackError(f"gate {g.kind.value} on a control wire is not trackable")
        if closed:
            raise TrackError("gate after the closing superposition gate")
        if g.kind == GateKind.H:
            if on_equator:
                closed = True
            else:
                on_equator = True
                phase = ZERO
            continue
        if not on_equator:
            raise TrackError(f"target gate {g.kind.value} before the opening H")
        if g.kind in DIAGONAL_PHASES:
            phase = phase + DIAGONAL_PHASES[g.kind]
            events.append(TraceEvent(f"θ({g.kind.value})", PhasePoint(phase), True))
        elif g.kind == GateKind.RZ:
            phase = phase + g.angle
            events.append(TraceEvent("θ(rz)", PhasePoint(phase), True))
        elif g.kind in (GateKind.CX, GateKind.CZ):
            other = g.qubits[0] if g.qubits[1] == target else g.qubits[1]
            if g.kind == GateKind.CX and g.qubits[1] != target:
                raise TrackError("CNOT controlled by the target is not trackable")
            cid = control_of[other]
            active = bool(mask >> (cid - 1) & 1)
            if active:
                phase = -phase if g.kind == GateKind.CX else phase + PI
            name = "CNOT" if g.kind == GateKind.CX else "CZ"
            events.append(TraceEvent(f"{name}(c{cid})", PhasePoint(phase), active))
        else:
            raise TrackError(f"target gate {g.kind.value} is not equator-trackable")
    output = None
    if closed:
        if phase == ZERO:
            output = False
        elif phase == PI:
            output = True
    return Trace(mask, tuple(events), phase, closed, output)


def phase_track(c: Circuit, controls: int | str, target: int | None = None) -> tuple[PhasePoint, ...]:
    """One PhasePoint per target-line event (the closing H excluded)."""
    return trace(c, controls, target).points


def render_trace_table(c: Circuit, target: int | None = None,
                       labels: tuple[str, ...] | None = None) -> str:
    """The full per-input trace table: one row per control assignment.

    Columns: the control ket, SP1 (phase reset to 0), one column per target
    event (inactive CNOT/CZ cells print an en dash), SP2 as the final ket,
    and the Boolean output (en dash when the phase is not Boolean).  Pass
    `labels` to override the per-event column names (the synthesizer does,
    to number theta slots and mark the AX2 column).
    """
    n_controls = c.n_qubits - 1
    rows = [trace(c, m, target) for m in range(2 ** n_controls)]
    ref = rows[0]
    if labels is not None and len(labels) != len(ref.events):
        raise ValueError(f"need {len(ref.events)} labels, got {len(labels)}")
    header = ["controls", "SP1"]
    for k, event in enumerate(ref.events):
        if labels is not None:
            header.append(labels[k])
        elif event.label.startswith("θ("):
            kind = event.label[2:-1]
            header.append(f"θ({DIAGONAL_NAMES.get(GateKind(kind), kind)})")
        else:
            header.append(event.label)
    header += ["SP2", "output"]

    table = [header]
    for row in rows:
        ket = "|" + format(row.controls, f"0{n_controls}b") + "⟩"
        cells = [ket, "0"]
        for event in row.events:
            cells.append(str(event.point) if event.applied else DASH)
        if row.closed and row.output is not None:
            cells.append(KET_1 if row.output else KET_0)
            cells.append(str(row.output))
        else:
            cells.append(DASH)
            cells.append(DASH)
        table.append(cells)

    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for irow, cells in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip())
        if irow == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines) + "\n"

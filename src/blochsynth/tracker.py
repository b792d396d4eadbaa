"""
Equator phase tracker: the analytical design-time oracle.

Once the first H puts the target on the Bloch equator, every admissible
target event acts on the single phase of (|0> + e^{i phase}|1>)/sqrt(2):

    Z-family gate of angle theta  ->  phase += theta
    CNOT with control bit 1       ->  phase := -phase   (global phase dropped)
    CNOT with control bit 0       ->  no-op (still emits a trace point)
    CZ with control bit 1         ->  phase += pi
    second H                      ->  off the equator: phase 0 -> |0>, pi -> |1>

The phase is carried as an integer count of pi/64 units mod 2pi, and each
point and the final phase are read from 128-entry tables, so a trace builds
no Angle.  Events are immutable too: each (label, phase, applied) event is
built once per process, from a bounded table, and shared by every trace.
The tracker walks a concrete circuit (not a template) and calls no solver
and no simulator, so it doubles as an independent check that
instantiation preserved the design: its Boolean verdict must match full
statevector simulation on every control input.
"""
from __future__ import annotations

from functools import lru_cache

from .angles import HALF_TURN, TURN, UNIT_ANGLES, Angle, Record, _store, to_units
from .ir import Circuit, GateKind, DIAGONAL_NAMES, DIAGONAL_PHASES
from .simulator import MAX_SIM_QUBITS

# Rendering constants: en dash for inactive-CNOT cells, kets for outputs.
DASH = "–"
KET_0, KET_1 = "|0⟩", "|1⟩"


class TrackError(ValueError):
    """The circuit is not equator-trackable."""


class PhasePoint(Record):
    __slots__ = _fields = ("phase",)

    def __init__(self, phase: Angle):
        _store(self, "phase", phase)

    def __str__(self) -> str:
        return self.phase.pi_string()


class TraceEvent(Record):
    __slots__ = _fields = ("label", "point", "applied")

    def __init__(self, label: str, point: PhasePoint, applied: bool):
        # label "θ(t)", "CNOT(2)", "AX2", ...; applied is False only for a
        # control-off CNOT/CZ.
        _store(self, "label", label)
        _store(self, "point", point)
        _store(self, "applied", applied)


class Trace(Record):
    __slots__ = _fields = ("controls", "events", "final_phase", "closed", "output")

    def __init__(self, controls: int, events: tuple[TraceEvent, ...], final_phase: Angle,
                 closed: bool, output: bool | None):
        # controls: bitmask, bit i-1 = control_i; closed: second H seen;
        # output: None when the final phase is not 0 or pi.
        _store(self, "controls", controls)
        _store(self, "events", events)
        _store(self, "final_phase", final_phase)
        _store(self, "closed", closed)
        _store(self, "output", output)

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


# One PhasePoint per phase value in pi/64 units, shared by every trace.
_POINTS = tuple(PhasePoint(a) for a in UNIT_ANGLES)
_DIAGONAL_UNITS = {kind: to_units(a) for kind, a in DIAGONAL_PHASES.items()}
_DIAGONAL_LABELS = {kind: f"θ({kind.value})" for kind in DIAGONAL_PHASES}


@lru_cache(maxsize=4096)   # n <= 5: 14 labels x 128 phases, 8 of them also idle
def _event(label: str, units: int, applied: bool) -> TraceEvent:
    return TraceEvent(label, _POINTS[units], applied)


@lru_cache(maxsize=64)
def _controls(n_qubits: int, target: int) -> dict[int, tuple[int, str, str]]:
    """wire -> (control id, CNOT label, CZ label): controls number the other wires from 1."""
    wires = (w for w in range(n_qubits) if w != target)
    return {w: (cid, f"CNOT(c{cid})", f"CZ(c{cid})") for cid, w in enumerate(wires, start=1)}


def trace(c: Circuit, controls: int | str, target: int | None = None) -> Trace:
    """Track the target's equator phase through the circuit for one control input."""
    if target is None:
        target = next((g.qubits[0] for g in c.gates if g.kind == GateKind.H), None)
        if target is None:
            raise TrackError("no H gate found; cannot locate the target wire")
    controls_of = _controls(c.n_qubits, target)
    mask = _control_mask(controls, c.n_qubits - 1)

    h_kind, i_kind, rz_kind = GateKind.H, GateKind.I, GateKind.RZ
    cx_kind, cz_kind = GateKind.CX, GateKind.CZ
    phase = 0
    on_equator = False
    closed = False
    events: list[TraceEvent] = []
    for g in c.gates:
        kind, qubits = g.kind, g.qubits
        if target not in qubits:
            if kind is i_kind:
                continue
            raise TrackError(f"gate {kind.value} on a control wire is not trackable")
        if closed:
            raise TrackError("gate after the closing superposition gate")
        if kind is h_kind:
            if on_equator:
                closed = True
            else:
                on_equator = True
                phase = 0
            continue
        if not on_equator:
            raise TrackError(f"target gate {kind.value} before the opening H")
        if kind in _DIAGONAL_UNITS:
            phase = (phase + _DIAGONAL_UNITS[kind]) % TURN
            events.append(_event(_DIAGONAL_LABELS[kind], phase, True))
        elif kind is rz_kind:
            angle = g.angle
            phase = (phase + angle.num * (HALF_TURN // angle.den)) % TURN
            events.append(_event("θ(rz)", phase, True))
        elif kind is cx_kind or kind is cz_kind:
            other = qubits[0] if qubits[1] == target else qubits[1]
            if kind is cx_kind and qubits[1] != target:
                raise TrackError("CNOT controlled by the target is not trackable")
            cid, cnot_label, cz_label = controls_of[other]
            active = bool(mask >> (cid - 1) & 1)
            if active:
                phase = -phase % TURN if kind is cx_kind else (phase + HALF_TURN) % TURN
            events.append(_event(cnot_label if kind is cx_kind else cz_label, phase, active))
        else:
            raise TrackError(f"target gate {kind.value} is not equator-trackable")
    output = None
    if closed:
        if phase == 0:
            output = False
        elif phase == HALF_TURN:
            output = True
    return Trace(mask, tuple(events), UNIT_ANGLES[phase], closed, output)


def render_trace_table(c: Circuit, target: int | None = None,
                       labels: tuple[str, ...] | None = None) -> str:
    """The full per-input trace table: one row per control assignment.

    Columns: the control ket, SP1 (phase reset to 0), one column per target
    event (inactive CNOT/CZ cells print an en dash), SP2 as the final ket,
    and the Boolean output (en dash when the phase is not Boolean).  Pass
    `labels` to override the per-event column names (the synthesizer does,
    to number theta slots and mark the AX2 column).
    """
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"trace table supports at most {MAX_SIM_QUBITS} qubits, got {c.n_qubits}")
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

"""Equator phase tracking against the analytical trace oracle."""
import pytest
from hypothesis import given, settings, strategies as st

from blochsynth.angles import PI, PI_2, ZERO, Angle
from blochsynth.ir import DIAGONAL_PHASES, Circuit, Gate, GateKind, cx, cz, h, rz, t, tdg, x
from blochsynth.tracker import (DASH, PhasePoint, Trace, TraceEvent, TrackError,
                                _control_mask, render_trace_table, trace)

TOFFOLI = Circuit(3, (h(1), tdg(1), cx(2, 1), t(1), cx(0, 1), tdg(1),
                      cx(2, 1), t(1), h(1)))


def test_trace_row_00():
    result = trace(TOFFOLI, 0)
    assert [str(p) for p in result.points] == \
        ["7π/4", "7π/4", "0", "0", "7π/4", "7π/4", "0"]
    assert [e.applied for e in result.events] == \
        [True, False, True, False, True, False, True]
    assert result.output is False and result.closed


def test_trace_row_11_phases():
    result = trace(TOFFOLI, 3)
    assert [str(p) for p in result.points] == \
        ["7π/4", "π/4", "π/2", "3π/2", "5π/4", "3π/4", "π"]
    assert all(e.applied for e in result.events)
    assert result.final_phase == PI
    assert result.output is True


def test_trace_accepts_ket_strings():
    # leftmost character is the highest-numbered control
    assert trace(TOFFOLI, "01").controls == 1
    assert trace(TOFFOLI, "10").controls == 2
    assert trace(TOFFOLI, "|11⟩").controls == 3
    with pytest.raises(TrackError):
        trace(TOFFOLI, "111")
    with pytest.raises(TrackError):
        trace(TOFFOLI, 4)


def test_phase_track_excludes_the_closing_h():
    points = trace(TOFFOLI, 3).points
    assert len(points) == 7


def test_inactive_cnot_emits_an_unchanged_point():
    result = trace(TOFFOLI, 1)   # c1 on, c2 off
    labels = [e.label for e in result.events]
    assert labels == ["θ(tdg)", "CNOT(c2)", "θ(t)", "CNOT(c1)",
                      "θ(tdg)", "CNOT(c2)", "θ(t)"]
    cnot_c1 = result.events[3]
    assert cnot_c1.applied and str(cnot_c1.point) == "0"


def test_cz_adds_pi_when_active():
    c = Circuit(2, (h(1), cz(0, 1), h(1)))
    assert trace(c, 1).output is True
    assert trace(c, 0).output is False
    assert trace(c, 1).events[0].label == "CZ(c1)"


def test_rz_event_and_open_phase():
    c = Circuit(2, (h(1), rz(Angle(1, 2), 1), h(1)))
    result = trace(c, 0)
    assert result.final_phase == PI_2
    assert result.output is None         # pi/2 is not a Boolean phase
    unclosed = trace(Circuit(2, (h(1), t(1))), 0)
    assert not unclosed.closed and unclosed.output is None


def test_untrackable_circuits_raise():
    with pytest.raises(TrackError):
        trace(Circuit(2, (h(1), x(0))), 0)           # gate on a control wire
    with pytest.raises(TrackError):
        trace(Circuit(2, (t(1), h(1))), 0)           # rotation before opening H
    with pytest.raises(TrackError):
        trace(Circuit(2, (h(1), h(1), t(1))), 0)     # gate after closing H
    with pytest.raises(TrackError):
        trace(Circuit(2, (t(1),)), 0)                # no H at all
    with pytest.raises(TrackError):
        trace(Circuit(2, (h(1), x(1), h(1))), 0)     # X is not equator-trackable
    with pytest.raises(TrackError):
        trace(Circuit(2, (h(0), cx(0, 1))), 0)       # CNOT controlled by target


def test_render_trace_table_golden():
    assert render_trace_table(TOFFOLI, labels=(
        "θ1(T†)", "CNOT(c2)", "θ2(T)", "CNOT(c1)", "θ3(T†)", "CNOT(c2)", "θ4(T)",
    )) == (
        "controls  SP1  θ1(T†)  CNOT(c2)  θ2(T)  CNOT(c1)  θ3(T†)  CNOT(c2)  θ4(T)  SP2  output\n"
        "--------------------------------------------------------------------------------------\n"
        "|00⟩      0    7π/4    –         0      –         7π/4    –         0      |0⟩  False\n"
        "|01⟩      0    7π/4    –         0      0         7π/4    –         0      |0⟩  False\n"
        "|10⟩      0    7π/4    π/4       π/2    –         π/4     7π/4      0      |0⟩  False\n"
        "|11⟩      0    7π/4    π/4       π/2    3π/2      5π/4    3π/4      π      |1⟩  True\n")


def test_render_trace_table_default_labels_and_dash_output():
    c = Circuit(2, (h(1), t(1), cx(0, 1), t(1), h(1)))
    text = render_trace_table(c)
    assert "θ(T)" in text.splitlines()[0]
    # CV-style circuits end off the Boolean axis: output column shows a dash
    cv = Circuit(2, (h(1), tdg(1), cx(0, 1), t(1), h(1)))
    lines = render_trace_table(cv).splitlines()
    assert lines[-1].endswith(DASH)


def test_render_trace_table_label_count_validated():
    with pytest.raises(ValueError):
        render_trace_table(TOFFOLI, labels=("just-one",))


def _reference_trace(c, controls, target=None):
    """The tracker walk in Angle arithmetic, one new PhasePoint per event."""
    if target is None:
        target = next((g.qubits[0] for g in c.gates if g.kind == GateKind.H), None)
        if target is None:
            raise TrackError("no H gate found; cannot locate the target wire")
    control_of = {w: i + 1 for i, w in enumerate(w for w in range(c.n_qubits) if w != target)}
    mask = _control_mask(controls, c.n_qubits - 1)
    phase, on_equator, closed, events = ZERO, False, False, []
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
                on_equator, phase = True, ZERO
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
        output = False if phase == ZERO else True if phase == PI else None
    return Trace(mask, tuple(events), phase, closed, output)


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except TrackError as exc:
        return "TrackError", str(exc)
    return result, repr(result)


# Kinds the tracker follows on the target wire; I is skipped on a control.
_TARGET_KINDS = (GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                 GateKind.RZ, GateKind.CX, GateKind.CZ, GateKind.I)
# Stray kinds: most of them break tracking wherever they land.
_STRAY_KINDS = (GateKind.X, GateKind.H, GateKind.SX, GateKind.RX, GateKind.Y,
                GateKind.SWAP, GateKind.CX, GateKind.CZ, GateKind.I, GateKind.T)


def _angle(data):
    return Angle(data.draw(st.integers(-300, 300)),
                 data.draw(st.sampled_from((1, 2, 4, 8, 16, 32, 64))))


def _target_gate(data, n, target):
    kind = data.draw(st.sampled_from(_TARGET_KINDS))
    other = data.draw(st.integers(0, n - 1).filter(lambda w: w != target))
    if kind.n_qubits == 1:
        return Gate(kind, (other if kind is GateKind.I else target,),
                    _angle(data) if kind.takes_angle else None)
    return Gate(kind, (other, target) if kind is GateKind.CX or data.draw(st.booleans())
                else (target, other))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_trace_equals_the_angle_arithmetic_reference(data):
    n = data.draw(st.integers(2, 5))
    target = data.draw(st.integers(0, n - 1))
    gates = [h(target)] if data.draw(st.integers(0, 9)) else []
    gates += [_target_gate(data, n, target) for _ in range(data.draw(st.integers(0, 24)))]
    if data.draw(st.integers(0, 3)):
        gates.append(h(target))
    # Often a stray gate on any wires, anywhere: most of these make the
    # circuit untrackable (on a control, before the opening H, after the
    # closing H, controlled by the target, or a kind the tracker refuses).
    if not data.draw(st.integers(0, 2)):
        kind = data.draw(st.sampled_from(_STRAY_KINDS))
        wires = tuple(data.draw(st.permutations(range(n)))[:kind.n_qubits])
        if kind.n_qubits == 2 and data.draw(st.booleans()):
            wires = (target, wires[1] if wires[1] != target else wires[0])
        stray = Gate(kind, wires, _angle(data) if kind.takes_angle else None)
        gates.insert(data.draw(st.integers(0, len(gates))), stray)
    c = Circuit(n, tuple(gates))
    where = data.draw(st.sampled_from((None, target)))
    # Every control mask, its ket string, and one mask out of range.
    for mask in range(2 ** (n - 1) + 1):
        for controls in (mask, format(mask, f"0{n - 1}b")):
            got = _outcome(trace, c, controls, where)
            assert got == _outcome(_reference_trace, c, controls, where)
            if got[0] != "TrackError":
                assert [str(p) for p in got[0].points] == [
                    str(p) for p in _reference_trace(c, controls, where).points]

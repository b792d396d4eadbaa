"""Equator phase tracking against the analytical trace oracle."""
import pytest

from blochsynth.angles import PI, PI_2, Angle
from blochsynth.ir import Circuit, cx, cz, h, rz, t, tdg, x
from blochsynth.tracker import DASH, TrackError, render_trace_table, trace

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

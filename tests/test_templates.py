"""Symmetric template structure, CNOT schedules, and slot masks."""
import pytest

from blochsynth.angles import PI, PI_4, ZERO, Angle
from blochsynth.ir import GateKind, cx, h, t, tdg
from blochsynth.templates import cnot_schedule, instantiate, make_template, slot_masks


def test_cnot_schedule_goldens():
    assert cnot_schedule(2) == (1,)
    assert cnot_schedule(3) == (2, 1, 2)
    assert cnot_schedule(4) == (3, 2, 3, 1, 3, 2, 3)
    assert cnot_schedule(5) == (4, 3, 4, 2, 4, 3, 4, 1, 4, 3, 4, 2, 4, 3, 4)


def test_schedule_is_palindromic():
    for n in range(2, 6):
        sched = cnot_schedule(n)
        assert sched == sched[::-1]
        assert len(sched) == 2 ** (n - 1) - 1


def test_template_structure():
    for n in range(2, 6):
        tpl = make_template(n)
        assert tpl.target_wire == n // 2
        assert tpl.control_wires == tuple(w for w in range(n) if w != n // 2)
        assert tpl.n_cnots == 2 ** (n - 1) - 1
        assert tpl.n_thetas == tpl.n_cnots + 1
        assert tpl.schedule == cnot_schedule(n)
        # Slots: a theta before each CNOT and after the last, then AX2 for n >= 3.
        c = instantiate(tpl, (PI_4,) * tpl.n_thetas, PI)
        assert c.gates[0] == h(tpl.target_wire) and c.gates[-1] == h(tpl.target_wire)
        kinds = [g.kind for g in c.gates[1:-1]]
        expected = [GateKind.T, GateKind.CX] * tpl.n_cnots + [GateKind.T]
        assert kinds == expected + [GateKind.Z] * (n >= 3)
    with pytest.raises(ValueError):
        make_template(6)
    with pytest.raises(ValueError):
        make_template(1)


def test_wire_of_control():
    tpl = make_template(4)
    assert [tpl.wire_of_control(k) for k in (1, 2, 3)] == [0, 1, 3]


def test_slot_masks_goldens():
    assert slot_masks(make_template(2)) == (1, 0)
    assert slot_masks(make_template(3)) == (1, 3, 2, 0)
    assert slot_masks(make_template(4)) == (1, 5, 7, 3, 2, 6, 4, 0)


def test_slot_masks_enumerate_the_full_character_group():
    for n in range(2, 6):
        masks = slot_masks(make_template(n))
        assert sorted(masks) == list(range(2 ** (n - 1)))


def test_instantiate_golden_gate_list():
    tpl = make_template(3)
    c = instantiate(tpl, (Angle(-1, 4), PI_4, Angle(-1, 4), PI_4), ZERO)
    assert c.gates == (h(1), tdg(1), cx(2, 1), t(1), cx(0, 1), tdg(1),
                       cx(2, 1), t(1), h(1))


def test_instantiate_zero_thetas_and_ax2():
    tpl = make_template(3)
    c = instantiate(tpl, (ZERO, Angle(-1, 2), ZERO, Angle(1, 2)), PI)
    # zero thetas emit nothing; the nonzero AX2 phase lands as a Z gate.
    kinds = [g.kind for g in c.gates]
    assert kinds == [GateKind.H, GateKind.CX, GateKind.SDG, GateKind.CX,
                     GateKind.CX, GateKind.S, GateKind.Z, GateKind.H]


def test_instantiate_validates_theta_count():
    with pytest.raises(ValueError):
        instantiate(make_template(3), (PI_4,))


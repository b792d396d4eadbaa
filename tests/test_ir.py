"""Gate and circuit IR invariants."""
from fractions import Fraction

import pytest

from blochsynth.angles import PI_2, PI_4, ZERO, Angle
from blochsynth.ir import (CLIFFORD_T, Circuit, Gate, GateKind, GateSet,
                           circuit_inverse, cx, cz, diagonal_gate, h, rz, s,
                           sdg, swap, sx, sxdg, t, tdg, x, z)


def test_kind_arity_and_angle_flags():
    assert GateKind.CX.n_qubits == 2
    assert GateKind.H.n_qubits == 1
    assert GateKind.RZ.takes_angle and GateKind.RX.takes_angle
    assert not GateKind.T.takes_angle
    assert GateKind.CZ.is_symmetric and GateKind.SWAP.is_symmetric
    assert not GateKind.CX.is_symmetric
    # (n_qubits, takes_angle, is_symmetric) of every member
    expected = {kind: (1, False, False) for kind in GateKind}
    expected.update({GateKind.RZ: (1, True, False), GateKind.RX: (1, True, False),
                     GateKind.CX: (2, False, False), GateKind.CZ: (2, False, True),
                     GateKind.SWAP: (2, False, True)})
    assert {kind: (kind.n_qubits, kind.takes_angle, kind.is_symmetric)
            for kind in GateKind} == expected


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (1, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.H, (-1,))
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0,), PI_2)      # angle on a fixed gate
    with pytest.raises(ValueError):
        Gate(GateKind.RZ, (0,))           # missing angle
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (0,))           # wrong arity


def test_symmetric_gates_canonicalize_qubit_order():
    assert cz(3, 1).qubits == (1, 3)
    assert swap(2, 0).qubits == (0, 2)
    assert cx(3, 1).qubits == (3, 1)      # control/target order is meaningful


def test_adjoints():
    assert t(0).adjoint() == tdg(0)
    assert sdg(1).adjoint() == s(1)
    assert sx(0).adjoint() == sxdg(0)
    assert h(0).adjoint() == h(0)
    assert cx(0, 1).adjoint() == cx(0, 1)
    assert rz(PI_4, 0).adjoint() == rz(-PI_4, 0)


def test_circuit_validation_and_ops():
    c = Circuit(2, (h(0), cx(0, 1)))
    assert len(c) == 2
    assert c.two_qubit_count() == 1
    with pytest.raises(ValueError):
        Circuit(1, (h(1),))
    with pytest.raises(ValueError):
        Circuit(2, (h(0),)) + Circuit(3, (h(0),))
    both = c + Circuit(2, (h(1),))
    assert len(both) == 3
    assert c.extended(z(1)).gates[-1] == z(1)


def test_circuit_inverse_reverses_and_adjoints():
    c = Circuit(2, (h(0), t(0), cx(0, 1)))
    inv = circuit_inverse(c)
    assert inv.gates == (cx(0, 1), tdg(0), h(0))
    assert c.inverse() == inv


def test_gateset_membership():
    assert CLIFFORD_T.contains(t(0))
    assert CLIFFORD_T.contains(cx(0, 1))
    assert not CLIFFORD_T.contains(rz(Angle(1, 16), 0))
    bounded = GateSet("narrow", frozenset(), rz_bound=Fraction(1, 3))
    assert bounded.contains(rz(PI_4, 0))
    assert not bounded.contains(rz(PI_2, 0))
    assert bounded.contains_all(Circuit(1, (rz(PI_4, 0), rz(-PI_4, 0))))


def test_diagonal_gate_picks_named_kinds():
    assert diagonal_gate(PI_4, 0) == t(0)
    assert diagonal_gate(-PI_4, 0) == tdg(0)
    assert diagonal_gate(PI_2, 0) == s(0)
    assert diagonal_gate(Angle(1, 1), 0) == z(0)
    assert diagonal_gate(Angle(1, 16), 0) == rz(Angle(1, 16), 0)
    assert diagonal_gate(ZERO, 0).kind == GateKind.RZ

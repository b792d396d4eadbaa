"""Gate and circuit IR invariants."""
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import blochsynth
from blochsynth.angles import PI_2, PI_4, ZERO, Angle
from blochsynth.ir import (Circuit, Gate, GateKind, cx, cz, diagonal_gate, h,
                           rz, s, sdg, swap, sx, sxdg, t, tdg, z)


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


def test_equal_gates_built_separately_hash_equal():
    assert cz(1, 0) == cz(0, 1) and hash(cz(1, 0)) == hash(cz(0, 1))
    a, b = rz(Angle(2, 8), 3), rz(Angle(-7, 4), 3)
    assert a.angle is not b.angle
    assert a == b and hash(a) == hash(b)
    assert len({cz(1, 0), cz(0, 1), a, b, rz(PI_2, 3)}) == 3


def test_gate_unpickled_from_another_process_hashes_as_built_here():
    # GateKind hashes by identity, so a hash cached in one process is stale in another
    package_root = str(Path(blochsynth.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    child = subprocess.run(
        [sys.executable, "-c", "import pickle; from blochsynth.angles import PI_4; "
         "from blochsynth.ir import cz, rz; print(pickle.dumps((rz(PI_4, 2), cz(3, 1))).hex())"],
        capture_output=True, text=True, check=True, env=env, timeout=60)
    gates = pickle.loads(bytes.fromhex(child.stdout))
    assert gates == (rz(PI_4, 2), cz(1, 3))
    assert set(gates) == {rz(PI_4, 2), cz(1, 3)}
    assert copy.deepcopy(gates[0]) == gates[0] and hash(copy.copy(gates[1])) == hash(cz(1, 3))


def test_gate_fields_are_frozen():
    g = rz(PI_4, 0)
    for name, value in (("kind", GateKind.H), ("qubits", (1,)), ("angle", PI_2)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    assert g == rz(PI_4, 0)
    a, c = Angle(1, 4), Circuit(2, (h(0),))
    for record, name, value in ((a, "num", 3), (a, "den", 8),
                                (c, "n_qubits", 3), (c, "gates", ())):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert a == PI_4 and c == Circuit(2, (h(0),))


def test_circuit_range_error_names_the_first_offending_gate():
    with pytest.raises(ValueError) as info:
        Circuit(2, (h(0), cx(0, 3), h(5)))
    assert str(info.value) == "gate cx (0, 3) out of range for 2 qubits"


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
    with pytest.raises(ValueError):
        Circuit(1, (h(1),))
    with pytest.raises(ValueError):
        Circuit(2, (h(0),)) + Circuit(3, (h(0),))
    both = c + Circuit(2, (h(1),))
    assert len(both) == 3


def test_circuit_inverse_reverses_and_adjoints():
    c = Circuit(2, (h(0), t(0), cx(0, 1)))
    assert c.inverse().gates == (cx(0, 1), tdg(0), h(0))


def test_diagonal_gate_picks_named_kinds():
    assert diagonal_gate(PI_4, 0) == t(0)
    assert diagonal_gate(-PI_4, 0) == tdg(0)
    assert diagonal_gate(PI_2, 0) == s(0)
    assert diagonal_gate(Angle(1, 1), 0) == z(0)
    assert diagonal_gate(Angle(1, 16), 0) == rz(Angle(1, 16), 0)
    assert diagonal_gate(ZERO, 0).kind == GateKind.RZ

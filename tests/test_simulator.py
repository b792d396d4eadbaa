"""Statevector simulation against hand-built matrix oracles."""
from unittest.mock import patch

import numpy as np
import pytest
from conftest import random_circuit
from hypothesis import given, settings, strategies as st

from blochsynth import baselines

from blochsynth.ir import (Circuit, Gate, GateKind, cx, cz, h, rz, s, swap,
                           sx, t, x, z)
from blochsynth.angles import PI, PI_2, Angle
from blochsynth.simulator import (MAX_SIM_QUBITS, SignedPauli, StateVector, TruthTable,
                                  apply, boolean_action, clifford_conjugate,
                                  equiv_up_to_global_phase,
                                  equiv_up_to_relative_phase, gate_matrix,
                                  permutation_unitary, reference_unitary,
                                  template_wires, unitary_of)
from blochsynth.synthesis import (OPERATORS, SynthVerificationError, check, operator,
                                  synth, synth_table)

_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_T = np.diag([1, np.exp(1j * np.pi / 4)])
_SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2


def test_gate_matrices_match_oracles():
    assert np.allclose(gate_matrix(h(0)), _H)
    assert np.allclose(gate_matrix(t(0)), _T)
    assert np.allclose(gate_matrix(sx(0)), _SX)
    # RZ(pi) = diag(-i, i): a global phase away from Z.
    assert np.allclose(gate_matrix(rz(PI, 0)), np.diag([-1j, 1j]))
    assert np.allclose(gate_matrix(rz(PI_2, 0)),
                       np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]))
    assert np.allclose(gate_matrix(s(0)), np.diag([1, 1j]))


def test_qubit_zero_is_the_low_bit():
    flipped = np.asarray(StateVector.basis(2, 0).amplitudes)
    got = unitary_of(Circuit(2, (x(0),))) @ flipped
    assert np.allclose(got, StateVector.basis(2, 1).amplitudes)
    got = unitary_of(Circuit(2, (x(1),))) @ flipped
    assert np.allclose(got, StateVector.basis(2, 2).amplitudes)
    # A gate on wire 0 acts on the fast index: kron(I, U).
    assert np.allclose(unitary_of(Circuit(2, (h(0),))), np.kron(np.eye(2), _H))
    assert np.allclose(unitary_of(Circuit(2, (h(1),))), np.kron(_H, np.eye(2)))


def test_two_qubit_gate_matrices():
    cx01 = unitary_of(Circuit(2, (cx(0, 1),)))
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[2, 2] = expect[1, 3] = expect[3, 1] = 1
    assert np.allclose(cx01, expect)
    assert np.allclose(unitary_of(Circuit(2, (cz(0, 1),))), np.diag([1, 1, 1, -1]))
    sw = unitary_of(Circuit(2, (swap(0, 1),)))
    assert np.allclose(sw, permutation_unitary((0, 2, 1, 3)))


def test_composition_order_is_left_to_right():
    got = unitary_of(Circuit(1, (h(0), t(0))))
    assert np.allclose(got, _T @ _H)


def test_apply_matches_unitary_columns():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_circuit(rng, 3, 12, with_rz=True)
        u = unitary_of(c)
        k = int(rng.integers(8))
        out = apply(c, StateVector.basis(3, k))
        assert np.allclose(out.amplitudes, u[:, k], atol=1e-12)


def _kron_matrix(g, n):
    """The full 2^n matrix of one gate, built without the simulator's kernel."""
    dim = 2 ** n
    if g.kind.n_qubits == 1:
        q = g.qubits[0]
        return np.kron(np.kron(np.eye(2 ** (n - 1 - q)), gate_matrix(g)), np.eye(2 ** q))
    a, b = g.qubits
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bit_a, bit_b = i >> a & 1, i >> b & 1
        if g.kind == GateKind.CX:
            m[i ^ (bit_a << b), i] = 1
        elif g.kind == GateKind.CZ:
            m[i, i] = -1 if bit_a and bit_b else 1
        else:
            m[i ^ ((bit_a ^ bit_b) << a) ^ ((bit_a ^ bit_b) << b), i] = 1
    return m


def test_unitary_of_matches_kron_products():
    rng = np.random.default_rng(23)
    for n in (3, 4, 5):
        for _ in range(10):
            gates = []
            for kind in GateKind:       # every kind at least once, in random order
                qubits = tuple(int(q) for q in rng.choice(n, size=kind.n_qubits, replace=False))
                angle = Angle(int(rng.integers(-63, 65)), 64) if kind.takes_angle else None
                gates.append(Gate(kind, qubits, angle))
            c = Circuit(n, tuple(gates[k] for k in rng.permutation(len(gates))))
            expect = np.eye(2 ** n)
            for g in c.gates:
                expect = _kron_matrix(g, n) @ expect
            assert np.allclose(unitary_of(c), expect, atol=1e-12)
            k = int(rng.integers(2 ** n))
            assert np.allclose(apply(c, StateVector.basis(n, k)).amplitudes,
                               expect[:, k], atol=1e-12)


@st.composite
def circuits(draw, max_qubits=5):
    """A circuit on at most max_qubits wires over every gate kind that fits."""
    n = draw(st.integers(1, max_qubits))
    gates = []
    for kind in draw(st.lists(st.sampled_from([k for k in GateKind if k.n_qubits <= n]),
                              max_size=24)):
        wires = tuple(draw(st.permutations(range(n)))[:kind.n_qubits])
        angle = Angle(draw(st.integers(-63, 64)), 64) if kind.takes_angle else None
        gates.append(Gate(kind, wires, angle))
    return Circuit(n, tuple(gates))


@settings(max_examples=80, deadline=None)
@given(circuits(), st.data())
def test_kernel_matches_kron_products_on_random_circuits(c, data):
    n = c.n_qubits
    expect = np.eye(2 ** n)
    for g in c.gates:
        expect = _kron_matrix(g, n) @ expect
    assert np.allclose(unitary_of(c), expect, atol=1e-12)
    amps = data.draw(st.lists(st.complex_numbers(max_magnitude=1, allow_nan=False),
                              min_size=2 ** n, max_size=2 ** n))
    assert np.allclose(apply(c, StateVector(n, amps)).amplitudes, expect @ np.array(amps),
                       atol=1e-12)


_PAIRS = [(kind, n) for kind, op in OPERATORS.items() for n in op.sizes]


def _dense_target(kind, n):
    """The operator's sparse target columns as a matrix, filled here by hand."""
    u = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for key, amp in operator(kind, n).target(n).items():
        u[key & (2 ** n - 1), key >> n] = amp
    return u


@pytest.mark.parametrize("kind,n", _PAIRS)
def test_sparse_checks_agree_with_the_dense_predicates(kind, n):
    target = _dense_target(kind, n)
    assert check(kind, n, synth(kind, n)) == ""
    assert equiv_up_to_relative_phase(unitary_of(synth(kind, n)), target)
    # naive_synth raises unless its own global-phase check passes.
    assert equiv_up_to_global_phase(unitary_of(baselines.naive_synth(kind, n)), target)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PAIRS), st.data())
def test_sparse_and_dense_checks_reject_a_dropped_gate(pair, data):
    kind, n = pair
    target = _dense_target(kind, n)
    design = synth(kind, n).gates
    k = data.draw(st.integers(0, len(design) - 1))
    dropped = Circuit(n, design[:k] + design[k + 1:])
    assert check(kind, n, dropped) != ""
    assert not equiv_up_to_relative_phase(unitary_of(dropped), target)

    textbook = baselines.naive_synth(kind, n).gates
    k = data.draw(st.integers(0, len(textbook) - 1))
    with patch.object(baselines, "_build", lambda *args: textbook[:k] + textbook[k + 1:]):
        with pytest.raises(SynthVerificationError, match="does not match its target"):
            baselines.naive_synth(kind, n)
    dropped = Circuit(n, textbook[:k] + textbook[k + 1:])
    assert not equiv_up_to_global_phase(unitary_of(dropped), target)


def _kron_boolean_action(c, n_controls, tol=1e-9):
    """The truth table read off the kron-product matrix, or None when not Boolean."""
    u = np.eye(2 ** c.n_qubits)
    for g in c.gates:
        u = _kron_matrix(g, c.n_qubits) @ u
    controls, target = template_wires(c.n_qubits)
    outputs = []
    for row in range(2 ** n_controls):
        index = sum((row >> i & 1) << w for i, w in enumerate(controls))
        bits = [bit for bit in (0, 1)
                if abs(abs(u[index | bit << target, index]) ** 2 - 1) <= tol]
        if not bits:
            return None
        outputs.append(bool(bits[0]))
    return TruthTable(n_controls, tuple(outputs))


# Diagonal kinds whose first entry is 1 (Z, S, T and their inverses), RZ
# whose first entry is not, and SX, which is not diagonal.
_MIDDLE_KINDS = (GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                 GateKind.RZ, GateKind.SX)


def test_boolean_action_matches_kron_products_on_template_shapes():
    # H on the target, then CNOTs into it interleaved with one-qubit gates on
    # it, then H: the template's shape.  Circuits whose middle holds only Z
    # are always Boolean; the rest mostly are not, and must raise.
    rng = np.random.default_rng(29)
    seen = {True: 0, False: 0}
    for n in (2, 3, 4, 5):
        controls, target = template_wires(n)
        for k in range(40):
            kinds = (GateKind.Z,) if k % 4 == 0 else _MIDDLE_KINDS
            gates = [h(target)]
            for _ in range(int(rng.integers(1, 3 * n))):
                if rng.random() < 0.5:
                    gates.append(cx(int(rng.choice(controls)), target))
                kind = kinds[rng.integers(len(kinds))]
                angle = Angle(int(rng.integers(-63, 65)), 64) if kind.takes_angle else None
                gates.append(Gate(kind, (target,), angle))
            c = Circuit(n, tuple(gates + [h(target)]))
            expect = _kron_boolean_action(c, n - 1)
            seen[expect is not None] += 1
            if expect is None:
                with pytest.raises(ValueError, match="not a Boolean operator"):
                    boolean_action(c, n - 1)
            else:
                assert boolean_action(c, n - 1) == expect
    assert min(seen.values()) >= 20


def test_boolean_action_matches_kron_products_on_synthesized_tables():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            outputs = tuple(bool(b) for b in rng.integers(2, size=2 ** (n - 1)))
            c = synth_table(outputs).circuit
            assert boolean_action(c, n - 1) == _kron_boolean_action(c, n - 1) == \
                TruthTable(n - 1, outputs)


def test_unitarity_and_inverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = random_circuit(rng, 3, 15, with_rz=True)
        u = unitary_of(c)
        assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-12)
        # RZ(pi)'s adjoint normalizes back to RZ(pi) = -RZ(-pi), so inversion
        # is exact only up to a global -1 when a +-pi rotation appears.
        assert equiv_up_to_global_phase(unitary_of(c.inverse()), u.conj().T,
                                        tol=1e-12)


def test_inverse_is_exact_away_from_the_pi_boundary():
    c = Circuit(2, (h(0), t(0), rz(Angle(3, 4), 1), cx(0, 1), s(1)))
    assert np.allclose(unitary_of(c.inverse()), unitary_of(c).conj().T,
                       atol=1e-12)


def test_equivalence_predicates():
    u = unitary_of(Circuit(2, (cx(0, 1),)))
    assert equiv_up_to_global_phase(np.exp(0.3j) * u, u)
    assert not equiv_up_to_global_phase(u, np.eye(4))
    dressed = u @ np.diag([1, 1j, -1, np.exp(0.25j)])
    assert equiv_up_to_relative_phase(dressed, u)
    assert not equiv_up_to_relative_phase(unitary_of(Circuit(2, (swap(0, 1),))), u)


def test_clifford_conjugation_identities():
    h_c = Circuit(1, (h(0),))
    s_c = Circuit(1, (s(0),))
    z_c = Circuit(1, (z(0),))
    x_c = Circuit(1, (x(0),))
    assert clifford_conjugate(h_c, GateKind.Z) == SignedPauli(1, GateKind.X)
    assert clifford_conjugate(s_c, GateKind.X) == SignedPauli(1, GateKind.Y)
    assert clifford_conjugate(h_c, GateKind.X) == SignedPauli(1, GateKind.Z)
    assert clifford_conjugate(z_c, GateKind.X) == SignedPauli(-1, GateKind.X)
    assert clifford_conjugate(z_c, GateKind.Y) == SignedPauli(-1, GateKind.Y)
    assert clifford_conjugate(x_c, GateKind.Z) == SignedPauli(-1, GateKind.Z)
    assert str(SignedPauli(-1, GateKind.Z)) == "-Z"
    with pytest.raises(ValueError):
        clifford_conjugate(Circuit(1, (t(0),)), GateKind.X)


def test_template_wires():
    assert template_wires(2) == ((0,), 1)
    assert template_wires(3) == ((0, 2), 1)
    assert template_wires(4) == ((0, 1, 3), 2)
    assert template_wires(5) == ((0, 1, 3, 4), 2)


def test_boolean_action():
    assert boolean_action(Circuit(2, (cx(0, 1),)), 1) == TruthTable(1, (False, True))
    assert boolean_action(Circuit(2, ()), 1) == TruthTable(1, (False, False))
    with pytest.raises(ValueError, match="not a Boolean operator"):
        boolean_action(Circuit(2, (h(1),)), 1)
    with pytest.raises(ValueError, match=f"at most {MAX_SIM_QUBITS} qubits"):
        boolean_action(Circuit(MAX_SIM_QUBITS + 1, ()), MAX_SIM_QUBITS)
    assert boolean_action(Circuit(MAX_SIM_QUBITS, ()), MAX_SIM_QUBITS - 1).outputs == \
        (False,) * 2 ** (MAX_SIM_QUBITS - 1)


def test_reference_unitaries():
    cv = reference_unitary("cv", 2)
    expect = np.eye(4, dtype=complex)
    expect[np.ix_((1, 3), (1, 3))] = _SX
    assert np.allclose(cv, expect)
    assert np.allclose(reference_unitary("cvdg", 2), cv.conj().T)
    ccx = reference_unitary("ccx", 3)
    perm = list(range(8))
    perm[5], perm[7] = 7, 5       # controls are wires 0 and 2, target wire 1
    assert np.allclose(ccx, permutation_unitary(tuple(perm)))


def test_statevector_basics():
    v = StateVector.basis(3, 5)
    assert v.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        v.amplitudes[0] = 1.0       # amplitudes are read-only


def test_permutation_unitary_composes():
    p = permutation_unitary((1, 0, 2, 3))
    e0 = np.zeros(4)
    e0[0] = 1
    assert np.allclose(p @ e0, np.eye(4)[:, 1])

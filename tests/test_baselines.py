"""Textbook reference constructions used by the compare benchmark."""
import numpy as np
import pytest

from blochsynth.angles import PI_2, Angle
from blochsynth.baselines import (controlled_phase, naive_synth)
from blochsynth.ir import Circuit, GateKind
from blochsynth.simulator import (boolean_action, equiv_up_to_global_phase,
                                  unitary_of)
from blochsynth.synthesis import OPERATOR_RANGES, BooleanSpec


def test_controlled_phase_matrix():
    gates = controlled_phase(PI_2, (0, 1))
    u = unitary_of(Circuit(2, gates))
    want = np.diag([1, 1, 1, np.exp(1j * np.pi / 2)])
    assert equiv_up_to_global_phase(u, want, tol=1e-9)


def test_controlled_phase_three_wires():
    gates = controlled_phase(Angle(1, 4), (0, 1, 2))
    u = unitary_of(Circuit(3, gates))
    want = np.diag([1] * 7 + [np.exp(1j * np.pi / 4)])
    assert equiv_up_to_global_phase(u, want, tol=1e-9)


def test_naive_boolean_truth_tables():
    for kind in ("toffoli", "and", "nand", "or", "nor", "implication", "inhibition"):
        for n in OPERATOR_RANGES[kind]:
            c = naive_synth(kind, n)
            spec = BooleanSpec.named(kind, n - 1)
            assert boolean_action(c, n - 1) == spec.truth_table(), (kind, n)


def test_naive_builds_every_supported_operator():
    # naive_synth verifies against the exact target unitary internally
    for kind, supported in OPERATOR_RANGES.items():
        for n in supported:
            assert naive_synth(kind, n).n_qubits == n


def test_naive_rejects_bad_requests():
    with pytest.raises(ValueError, match="unknown operator"):
        naive_synth("parity", 3)
    with pytest.raises(ValueError, match="supports n in"):
        naive_synth("miller", 5)


def test_textbook_toffoli_shape():
    c = naive_synth("toffoli", 3)
    kinds = [g.kind for g in c.gates]
    assert kinds.count(GateKind.CX) == 6
    assert kinds.count(GateKind.T) + kinds.count(GateKind.TDG) == 7

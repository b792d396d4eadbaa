"""Theta selection: frozen solutions, solver ordering, and the phase-system oracle."""
from fractions import Fraction

import numpy as np
import pytest

from blochsynth.angles import PI, ZERO, Angle
from blochsynth.ir import GateKind
from blochsynth.simulator import (boolean_action, equiv_up_to_relative_phase,
                                  permutation_unitary, reference_unitary,
                                  unitary_of)
from blochsynth.synthesis import (Ax2, BooleanSpec, OPERATOR_RANGES,
                                  MILLER_PERMUTATION, NarrowingResult,
                                  SynthVerificationError, ThetaAssignment,
                                  UnsatisfiableError, fredkin_permutation,
                                  miller_permutation, narrow_gate_set,
                                  solve_phase_system, solve_thetas, synth,
                                  synth_detailed, synth_table,
                                  theta_system_holds)
from blochsynth.templates import make_template, slot_masks
from blochsynth.tracker import trace

T, TD, S, SD = Angle(1, 4), Angle(-1, 4), Angle(1, 2), Angle(-1, 2)

# The frozen three-qubit solution table: (thetas, ax2) per operator.
TABLE_3 = {
    "and": ((TD, T, TD, T), Ax2.I),
    "nand": ((TD, T, TD, T), Ax2.MINUS_Z),
    "or": ((T, T, T, T), Ax2.Z),
    "nor": ((T, T, T, T), Ax2.I),
    "implication": ((TD, TD, T, T), Ax2.MINUS_Z),
    "inhibition": ((TD, TD, T, T), Ax2.I),
}


@pytest.mark.parametrize("kind", sorted(TABLE_3))
def test_three_qubit_solution_table(kind):
    result = synth_detailed(kind, 3)
    thetas, ax2 = TABLE_3[kind]
    assert result.assignment.thetas == thetas
    assert result.assignment.ax2 == ax2


def test_and_two_golden():
    result = synth_detailed("and", 2)
    assert result.assignment == ThetaAssignment((SD, S), Ax2.I)


def test_cv_goldens():
    assert synth_detailed("cv", 2).assignment.thetas == (TD, T)
    assert synth_detailed("cvdg", 2).assignment.thetas == (T, TD)
    eighth = tuple(Angle((-1) ** (j + 1), 16) for j in range(8))
    assert synth_detailed("cv", 4).assignment.thetas == eighth
    assert synth_detailed("cvdg", 4).assignment.thetas == \
        tuple(-a for a in eighth)


def test_higher_and_goldens():
    assert synth_detailed("and", 4).assignment.thetas == \
        tuple(Angle((-1) ** (j + 1), 8) for j in range(8))
    assert synth_detailed("and", 5).assignment.thetas == \
        tuple(Angle((-1) ** (j + 1), 16) for j in range(16))


def test_enumeration_order_breaks_the_and2_tie():
    # Both (S†, S) and (S, S†) solve AND-2; slot 1 cycling fastest over the
    # descending candidate list reaches (S†, S) first (index 3 vs 12).
    template = make_template(2)
    thetas, ax2 = solve_phase_system(template, (ZERO, PI))
    assert thetas == (SD, S) and ax2 == ZERO


def test_narrowing_case_table():
    one = narrow_gate_set(1)
    assert one.ctg3.kinds == frozenset(
        {GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG})
    assert one.seg1 == frozenset({"quadrants", "octants"})
    assert one.candidates == (S, T, TD, SD)

    two = narrow_gate_set(2)
    assert two.ctg3.rz_bound == Fraction(1, 3)
    assert two.candidates == (T, TD)
    assert two.seg1 == frozenset({"semicircles", "quadrants", "octants"})

    three = narrow_gate_set(3)
    assert three.ctg3.kinds == frozenset({GateKind.T, GateKind.TDG})
    assert three.seg1 == frozenset({"octants"})
    assert three.candidates == (T, TD)

    seven = narrow_gate_set(7)
    assert seven.ctg3.rz_bound == Fraction(1, 8)
    assert seven.candidates == (Angle(1, 8), Angle(-1, 8))
    assert narrow_gate_set(15).candidates == (Angle(1, 16), Angle(-1, 16))
    with pytest.raises(ValueError):
        narrow_gate_set(0)


def test_candidates_are_descending_and_nonzero():
    for n_cnot in (1, 2, 3, 7, 15):
        cands = narrow_gate_set(n_cnot).candidates
        floats = [float(a) for a in cands]
        assert floats == sorted(floats, reverse=True)
        assert all(not a.is_zero() for a in cands)


def test_cv4_needs_the_widened_fallback():
    template = make_template(4)
    targets = tuple(Angle(1, 2) if x == 7 else ZERO for x in range(8))
    with pytest.raises(UnsatisfiableError, match="unsatisfiable in CTG3"):
        solve_phase_system(template, targets)
    thetas, ax2 = solve_phase_system(template, targets, widen=True)
    assert ax2 == ZERO
    assert thetas == tuple(Angle((-1) ** (j + 1), 16) for j in range(8))


def test_solve_phase_system_validates_target_count():
    with pytest.raises(ValueError):
        solve_phase_system(make_template(3), (ZERO, PI))


def test_ax2_sign_rule():
    # Phase pi with f(0..0) = 0 reads as Z, with f(0..0) = 1 as -Z.
    assert solve_thetas(make_template(3), BooleanSpec.named("or", 2)).ax2 == Ax2.Z
    assert solve_thetas(make_template(3), BooleanSpec.named("nand", 2)).ax2 == Ax2.MINUS_Z
    assert Ax2.I.phase == ZERO
    assert Ax2.Z.phase == PI and Ax2.MINUS_Z.phase == PI
    assert Ax2.MINUS_Z.value == "-Z"


def test_theta_system_holds_soundness():
    rng = np.random.default_rng(7)
    for n in range(2, 6):
        template = make_template(n)
        masks = slot_masks(template)
        for _ in range(20):
            thetas = tuple(Angle(int(rng.integers(-63, 65)), 64)
                           for _ in range(template.n_thetas))
            ax = ZERO if n == 2 or rng.integers(2) == 0 else PI
            targets = []
            for x in range(2 ** (n - 1)):
                total = ax
                for theta, mask in zip(thetas, masks):
                    sign = -1 if bin(x & mask).count("1") % 2 else 1
                    total = total + (theta if sign > 0 else -theta)
                targets.append(total)
            targets = tuple(targets)
            assert theta_system_holds(template, thetas, ax, targets)
            bad = (targets[0] + Angle(1, 64),) + targets[1:]
            assert not theta_system_holds(template, thetas, ax, bad)
            solved, solved_ax = solve_phase_system(template, targets, widen=True)
            assert theta_system_holds(template, solved, solved_ax, targets)


def test_tracker_agrees_with_the_sign_structure():
    # Independent cross-check: the tracker's final phase on every control
    # input must equal the solved linear system's value.
    for kind in sorted(TABLE_3) + ["cv", "cvdg"]:
        for n in OPERATOR_RANGES[kind]:
            result = synth_detailed(kind, n)
            spec_targets = []
            if kind in TABLE_3:
                spec = BooleanSpec.named(kind, n - 1)
                spec_targets = [PI if out else ZERO for out in spec.outputs]
            else:
                tau = Angle(1, 2) if kind == "cv" else Angle(-1, 2)
                spec_targets = [tau if x == 2 ** (n - 1) - 1 else ZERO
                                for x in range(2 ** (n - 1))]
            for x, want in enumerate(spec_targets):
                got = trace(result.circuit, x, result.template.target_wire)
                assert got.final_phase == want, (kind, n, x)


def test_every_supported_operator_synthesizes():
    for kind, supported in OPERATOR_RANGES.items():
        for n in supported:
            c = synth(kind, n)
            assert c.n_qubits == n


def test_synth_rejects_bad_requests():
    with pytest.raises(ValueError, match="unknown operator"):
        synth("xor", 3)
    with pytest.raises(ValueError, match="supports n in"):
        synth("toffoli", 6)
    with pytest.raises(ValueError):
        synth("implication", 4)
    with pytest.raises(ValueError):
        synth("cv", 3)


def test_synth_table_widens_for_xor():
    outputs = (False, True, True, False)
    result = synth_table(outputs)
    assert result.assignment.thetas == (ZERO, SD, ZERO, S)
    assert boolean_action(result.circuit, 2) == BooleanSpec(2, outputs).truth_table()


def test_synth_table_matches_named_synthesis():
    spec = BooleanSpec.named("or", 2)
    assert synth_table(spec.outputs).circuit == synth("or", 3)
    with pytest.raises(ValueError):
        synth_table((True, False, True))


def test_trace_labels_golden():
    assert synth_detailed("toffoli", 3).trace_labels() == (
        "θ1(T†)", "CNOT(c2)", "θ2(T)", "CNOT(c1)", "θ3(T†)", "CNOT(c2)", "θ4(T)")
    assert synth_detailed("nand", 3).trace_labels() == (
        "θ1(T†)", "CNOT(c2)", "θ2(T)", "CNOT(c1)", "θ3(T†)", "CNOT(c2)", "θ4(T)",
        "AX2(-Z)")
    assert synth_detailed("and", 2).trace_labels() == (
        "θ1(S†)", "CNOT(c1)", "θ2(S)")
    # zero thetas are skipped
    assert synth_table((False, True, True, False)).trace_labels() == (
        "CNOT(c2)", "θ2(S†)", "CNOT(c1)", "CNOT(c2)", "θ4(S)")
    with pytest.raises(ValueError):
        synth_detailed("fredkin", 3).trace_labels()


def test_de_morgan_complements():
    # Literal truth tables, independent of the registry's literal forms.
    assert {kind: BooleanSpec.named(kind, 2).outputs
            for kind in ("toffoli", "and", "nand", "or", "nor",
                         "implication", "inhibition")} == {
        "toffoli": (False, False, False, True),
        "and": (False, False, False, True),
        "nand": (True, True, True, False),
        "or": (False, True, True, True),
        "nor": (True, False, False, False),
        "implication": (True, False, True, True),
        "inhibition": (False, True, False, False),
    }
    for a, b in (("and", "nand"), ("or", "nor")):
        for k in range(1, 5):
            lhs = BooleanSpec.named(a, k).outputs
            rhs = BooleanSpec.named(b, k).outputs
            assert lhs == tuple(not o for o in rhs)
    impl = BooleanSpec.named("implication", 2).outputs
    inhb = BooleanSpec.named("inhibition", 2).outputs
    assert impl == tuple(not o for o in inhb)
    assert impl == (True, False, True, True)      # x = (c1, c2) little-endian


def test_boolean_spec_validation():
    with pytest.raises(ValueError):
        BooleanSpec(2, (True, False))
    with pytest.raises(ValueError, match="not a Boolean operator"):
        BooleanSpec.named("cv", 1)


def test_fredkin_permutation_goldens():
    assert fredkin_permutation(3) == (0, 1, 2, 5, 4, 3, 6, 7)
    expected = list(range(16))
    expected[7], expected[11] = 11, 7
    assert fredkin_permutation(4) == tuple(expected)


def test_miller_permutation_goldens():
    assert miller_permutation(3) == MILLER_PERMUTATION == (0, 1, 2, 7, 4, 3, 5, 6)
    assert miller_permutation(4) == tuple(
        MILLER_PERMUTATION[i & 7] | (i & 8) for i in range(16))
    # an honest 4-cycle on the two-or-more-bits-set states
    seen = sorted(MILLER_PERMUTATION)
    assert seen == list(range(8))


def test_composite_circuits_match_their_permutations():
    for kind, perm_fn in (("fredkin", fredkin_permutation),
                          ("miller", miller_permutation)):
        for n in OPERATOR_RANGES[kind]:
            c = synth(kind, n)
            assert equiv_up_to_relative_phase(
                unitary_of(c), permutation_unitary(perm_fn(n)))


def test_composite_two_qubit_counts():
    def n2(c):
        return sum(1 for g in c.gates if len(g.qubits) == 2)
    assert n2(synth("fredkin", 3)) == 5
    assert n2(synth("fredkin", 4)) == 9
    assert n2(synth("miller", 3)) == 13
    assert n2(synth("miller", 4)) == 13


def test_cv_matches_reference_unitary():
    for kind in ("cv", "cvdg"):
        for n in OPERATOR_RANGES[kind]:
            assert equiv_up_to_relative_phase(
                unitary_of(synth(kind, n)), reference_unitary(kind, n))


def test_synth_result_notes_mention_the_construction():
    assert "AND core" in synth_detailed("fredkin", 3).notes[0]
    assert "Miller" in synth_detailed("miller", 4).notes[0]

"""Theta selection: frozen solutions, solver ordering, and the phase-system oracle."""
import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochsynth.angles import PI, ZERO, Angle
from blochsynth.simulator import (boolean_action, equiv_up_to_relative_phase,
                                  permutation_unitary, reference_unitary,
                                  unitary_of)
from blochsynth.synthesis import (Ax2, BooleanSpec, OPERATOR_RANGES,
                                  MILLER_PERMUTATION,
                                  ThetaAssignment,
                                  UnsatisfiableError, _ax2, _design, _walsh,
                                  fredkin_permutation,
                                  miller_permutation, narrow_gate_set,
                                  solve_phase_system, solve_thetas, synth,
                                  synth_detailed, synth_table,
                                  theta_system_holds)
from blochsynth.templates import Template, instantiate, make_template, slot_masks
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
    assert narrow_gate_set(1) == (S, T, TD, SD)
    assert narrow_gate_set(2) == (T, TD)
    assert narrow_gate_set(3) == (T, TD)
    assert narrow_gate_set(7) == (Angle(1, 8), Angle(-1, 8))
    assert narrow_gate_set(15) == (Angle(1, 16), Angle(-1, 16))
    with pytest.raises(ValueError):
        narrow_gate_set(0)


def test_candidates_are_descending_and_nonzero():
    for n_cnot in (1, 2, 3, 7, 15):
        cands = narrow_gate_set(n_cnot)
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


@pytest.mark.parametrize("outputs, message", [
    ("0001", "entry 0 is '0'"),          # each character would read as True
    ((0, 0, 0, 2), "entry 3 is 2"),
    ((0, 0.5, 1, 1), "entry 1 is 0.5"),
    ((1, 0, None, 0), "entry 2 is None"),
])
def test_synth_table_names_the_first_entry_that_is_not_a_bit(outputs, message):
    with pytest.raises(ValueError, match=f"^truth table {message}, not a bool or 0/1$"):
        synth_table(outputs)


def test_synth_table_takes_the_ints_0_and_1_as_bools():
    assert synth_table((0, 1, 1, 0)) == synth_table((False, True, True, False))
    assert synth_table([1, True, 0, False]).circuit == synth_table((1, 1, 0, 0)).circuit


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


def _units(angle):
    return angle.num * 64 // angle.den


def enumerate_solve(template, targets, widen=False):
    """Reference solver: brute-force enumeration, then the transform fallback.

    Every narrowed candidate assignment is tried in order (slot 1 cycling
    fastest over the descending candidates, AX2 = 0 before pi).  When none
    solves the system, each AX2 branch is inverted through the character
    transform and accepted if it checks and, unless widened, stays in the
    candidates or zero.
    """
    cands = narrow_gate_set(template.n_cnots)
    axes = (ZERO, PI) if template.n_qubits >= 3 else (ZERO,)
    masks = slot_masks(template)
    signs = [[-1 if bin(x & m).count("1") % 2 else 1 for m in masks]
             for x in range(len(targets))]
    want = [_units(t) for t in targets]
    by_units = {_units(c): c for c in cands}
    for digits in itertools.product(by_units, repeat=template.n_thetas):
        units = digits[::-1]                # product cycles its last slot fastest
        for ax in axes:
            # Row 0 has every sign +1: a cheap filter before the full check.
            if (sum(units) + _units(ax) - want[0]) % 128 == 0 and all(
                    (sum(s * u for s, u in zip(row, units)) + _units(ax) - w) % 128 == 0
                    for row, w in zip(signs, want)):
                return tuple(by_units[u] for u in units), ax
    for ax in axes:
        rhs = [(w - _units(ax)) % 128 for w in want]
        rhs = [r - 128 if r > 64 else r for r in rhs]
        sums = [sum(row[j] * r for row, r in zip(signs, rhs)) for j in range(len(masks))]
        if any(total % len(targets) for total in sums):
            continue
        thetas = tuple(Angle(total // len(targets), 64) for total in sums)
        if theta_system_holds(template, thetas, ax, targets) and (
                widen or all(t in cands or t.is_zero() for t in thetas)):
            return thetas, ax
    raise UnsatisfiableError("no solution")


def _assert_matches_reference(template, targets):
    for widen in (False, True):
        try:
            expected = enumerate_solve(template, targets, widen)
        except UnsatisfiableError:
            with pytest.raises(UnsatisfiableError):
                solve_phase_system(template, targets, widen)
            continue
        assert solve_phase_system(template, targets, widen) == expected, (targets, widen)


def _phases(template, thetas, ax):
    masks = slot_masks(template)
    targets = []
    for x in range(2 ** (template.n_qubits - 1)):
        total = ax
        for theta, mask in zip(thetas, masks):
            total = total + (-theta if bin(x & mask).count("1") % 2 else theta)
        targets.append(total)
    return tuple(targets)


def test_solver_matches_the_enumeration_on_every_small_table():
    for n in (2, 3, 4):
        template = make_template(n)
        for bits in itertools.product((ZERO, PI), repeat=2 ** (n - 1)):
            _assert_matches_reference(template, bits)


def test_solver_matches_the_enumeration_on_cv_targets():
    for n in (2, 4):
        rows = 2 ** (n - 1)
        for tau in (Angle(1, 2), Angle(-1, 2)):
            targets = tuple(tau if x == rows - 1 else ZERO for x in range(rows))
            _assert_matches_reference(make_template(n), targets)


def test_solver_matches_the_enumeration_on_candidate_assignments():
    rng = random.Random(3)
    for n, count in ((2, 40), (3, 40), (4, 30), (5, 4)):
        template = make_template(n)
        cands = narrow_gate_set(template.n_cnots)
        for k in range(count):
            pool = cands + ((ZERO,) if k % 2 else ())
            thetas = [rng.choice(pool) for _ in range(template.n_thetas)]
            ax = rng.choice((ZERO, PI)) if n >= 3 else ZERO
            _assert_matches_reference(template, _phases(template, thetas, ax))


def test_lowest_index_decides_between_two_narrow_branches():
    # Both AX2 branches solve this inside {T, T†}; (T, T, T†, T) with AX2 = pi
    # has the lower enumeration index.
    template = make_template(3)
    targets = (-S, S, -S, -S)
    assert solve_phase_system(template, targets) == ((T, T, TD, T), PI)
    assert enumerate_solve(template, targets) == ((T, T, TD, T), PI)


def test_widen_still_prefers_the_narrowed_solution():
    # NAND-3 also has a widened AX2 = 0 solution; the narrowed one wins.
    template = make_template(3)
    assert solve_phase_system(template, (PI, PI, PI, ZERO), widen=True) == \
        ((TD, T, TD, T), PI)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.booleans(), min_size=16, max_size=16))
def test_random_five_qubit_tables_satisfy_all_three_oracles(outputs):
    result = synth_table(tuple(outputs))
    targets = tuple(PI if out else ZERO for out in outputs)
    assignment = result.assignment
    assert theta_system_holds(result.template, assignment.thetas,
                              assignment.ax2.phase, targets)
    for x, want in enumerate(targets):
        assert trace(result.circuit, x, result.template.target_wire).final_phase == want
    assert boolean_action(result.circuit, 4) == BooleanSpec(4, tuple(outputs)).truth_table()


def _sign_matrix(masks, n_rows):
    s = np.empty((n_rows, len(masks)), dtype=np.int64)
    for x in range(n_rows):
        for j, mask in enumerate(masks):
            s[x, j] = -1 if bin(x & mask).count("1") % 2 else 1
    return s


def sign_matrix_solve(template, targets, widen=False):
    """Reference solver: the character transform as an explicit sign matrix.

    Same preference as the solver under test: all-candidate solutions by
    lowest enumeration index, then the first AX2 branch whose thetas are
    candidates or zero (any dyadic angle when widened).
    """
    masks = slot_masks(template)
    n_rows = 2 ** (template.n_qubits - 1)
    if len(targets) != n_rows:
        raise ValueError(f"need {n_rows} target phases")
    sign = _sign_matrix(masks, n_rows)
    target_units = np.array([_units(a) for a in targets], dtype=np.int64) % 128
    cands = narrow_gate_set(template.n_cnots)
    solutions = []
    for ax_units in (0, 64) if template.n_qubits >= 3 else (0,):
        rhs = (target_units - ax_units) % 128
        rhs = np.where(rhs > 64, rhs - 128, rhs)       # representative in (-pi, pi]
        numer = sign.T @ rhs
        if np.any(numer % n_rows):
            continue
        units = numer // n_rows
        if np.array_equal((sign @ units + ax_units) % 128, target_units):
            solutions.append((tuple(Angle(int(u), 64) for u in units), Angle(ax_units, 64)))
    narrow = {sum(cands.index(t) * len(cands) ** j for j, t in enumerate(thetas)):
              (thetas, ax2) for thetas, ax2 in solutions if set(thetas) <= set(cands)}
    if narrow:
        return narrow[min(narrow)]
    for thetas, ax2 in solutions:
        if widen or set(thetas) <= set(cands) | {ZERO}:
            return thetas, ax2
    raise UnsatisfiableError(
        f"unsatisfiable in CTG3 (candidates {[str(c) for c in cands]})")


def _outcome(solver, template, targets, widen):
    try:
        return solver(template, targets, widen)
    except UnsatisfiableError as exc:
        return f"unsat: {exc}"


def _assert_matches_sign_matrix(template, targets):
    for widen in (False, True):
        assert _outcome(solve_phase_system, template, targets, widen) == \
            _outcome(sign_matrix_solve, template, targets, widen), (targets, widen)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.booleans(), min_size=16, max_size=16))
def test_solver_matches_the_sign_matrix_on_five_qubit_tables(outputs):
    _assert_matches_sign_matrix(make_template(5),
                                tuple(PI if out else ZERO for out in outputs))


_DYADIC = st.builds(lambda k, num: Angle(num, 2 ** k), st.integers(0, 6), st.integers(-64, 64))


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.booleans(),
    st.lists(_DYADIC, min_size=2 ** (n - 1), max_size=2 ** (n - 1)),
    st.booleans())))
def test_solver_matches_the_sign_matrix_on_dyadic_targets(case):
    # Raw dyadic targets are mostly unsatisfiable; targets generated from
    # dyadic thetas always have a solution, so both paths are exercised.
    n, from_thetas, angles, ax_pi = case
    template = make_template(n)
    if from_thetas:
        angles = _phases(template, angles, PI if ax_pi and n >= 3 else ZERO)
    _assert_matches_sign_matrix(template, tuple(angles))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n - 1), min_size=1, max_size=7),
    st.lists(st.sampled_from((ZERO, PI, Angle(1, 4), Angle(-1, 2))),
             min_size=2 ** (n - 1), max_size=2 ** (n - 1)),
    st.lists(_DYADIC, min_size=8, max_size=8), st.booleans())))
def test_solver_back_check_holds_for_repeated_masks(case):
    # A schedule that repeats a parity gives repeated slot masks, so the
    # back-check must sum the thetas that share a mask, as sign @ units does.
    n, schedule, targets, thetas, ax_pi = case
    base = make_template(n)
    template = Template(n, base.control_wires, base.target_wire, tuple(schedule))
    _assert_matches_sign_matrix(template, tuple(targets))
    # An instance of any schedule applies sum_j s_j(x) theta_j + ax2 on input x.
    thetas, ax2 = tuple(thetas[:template.n_thetas]), PI if ax_pi else ZERO
    circuit = instantiate(template, thetas, ax2)
    for x, want in enumerate(_phases(template, thetas, ax2)):
        assert trace(circuit, x, template.target_wire).final_phase == want, (x, thetas, ax2)


def _solver_digest(widen):
    """sha256 of solve_phase_system on 512 seeded five-qubit truth tables."""
    rng = random.Random(512)
    template = make_template(5)
    digest = hashlib.sha256()
    for _ in range(512):
        bits = rng.getrandbits(16)
        targets = tuple(PI if bits >> x & 1 else ZERO for x in range(16))
        try:
            thetas, ax2 = solve_phase_system(template, targets, widen)
            line = " ".join(str(t) for t in thetas) + f" | {ax2}"
        except UnsatisfiableError as exc:
            line = f"unsat: {exc}"
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


# Recorded with the sign-matrix solver before the integer transform replaced it.
SOLVER_DIGESTS = {
    False: "8a4b1229972f39b0419f379780137de64fa8c6aba7c63f208321494017b71d07",
    True: "bf466d38008a4946413f0ed43d1311b2047927fea29749cadc8350047bf87f5b",
}


@pytest.mark.parametrize("widen", (False, True))
def test_solver_digest_on_seeded_five_qubit_tables(widen):
    assert _solver_digest(widen) == SOLVER_DIGESTS[widen]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda m: st.lists(
    st.integers(-1000, 1000), min_size=2 ** m, max_size=2 ** m)))
def test_walsh_applied_twice_scales_by_the_length(v):
    assert _walsh(_walsh(list(v))) == [len(v) * x for x in v]


def test_walsh_maps_a_basis_vector_to_its_character_row():
    for m in range(6):
        size = 2 ** m
        for x in range(size):
            basis = [0] * size
            basis[x] = 1
            assert _walsh(basis) == [-1 if bin(x & k).count("1") % 2 else 1
                                     for k in range(size)]


def _two_call_design(n, targets):
    """The design rule as two solver calls: narrowed, then widen=True on UnsatisfiableError."""
    template = make_template(n)
    try:
        thetas, ax2_phase = solve_phase_system(template, targets)
    except UnsatisfiableError:
        thetas, ax2_phase = solve_phase_system(template, targets, widen=True)
    return ThetaAssignment(thetas, _ax2(ax2_phase, targets)), \
        instantiate(template, thetas, ax2_phase)


def _table_targets(n, code):
    return tuple(PI if code >> x & 1 else ZERO for x in range(2 ** (n - 1)))


def _design_cases():
    rng = random.Random(2000)
    small = [(n, code) for n in (2, 3, 4) for code in range(2 ** 2 ** (n - 1))]
    return small + [(5, rng.getrandbits(16)) for _ in range(2000)]


def test_one_pass_design_equals_the_two_call_rule():
    cases = _design_cases()
    assert len(cases) == 276 + 2000
    for n, code in cases:
        targets = _table_targets(n, code)
        result = _design("table", n, targets)
        assignment, circuit = _two_call_design(n, targets)
        assert result.assignment == assignment, (n, code)
        assert result.circuit == circuit, (n, code)


def test_widen_alone_is_not_the_design_rule():
    # Only the constant-1 tables tell the two apart (all 276 at n <= 4): no
    # narrowed solution, and the AX2 = 0 branch holds thetas outside the
    # candidates, while the AX2 = pi branch is all zero.  widen=True takes the
    # first branch; the design takes the candidates-or-zero one.
    differ = []
    for n, code in _design_cases()[:276] + [(5, 0xFFFF)]:
        targets = _table_targets(n, code)
        thetas, ax2_phase = solve_phase_system(make_template(n), targets, widen=True)
        if _design("table", n, targets).assignment != ThetaAssignment(
                thetas, _ax2(ax2_phase, targets)):
            differ.append((n, code))
    assert differ == [(3, 0xF), (4, 0xFF), (5, 0xFFFF)]
    assert synth_table((True,) * 8).assignment == ThetaAssignment((ZERO,) * 8, Ax2.MINUS_Z)

"""Native-basis rewriting: rule goldens, canonicalization laws, equivalence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochsynth.angles import PI, PI_2, ZERO, Angle
from blochsynth.ir import (Circuit, Gate, GateKind, cx, cz, h, i,
                           rz, s, swap, sx, t, x, y, z)
from blochsynth.simulator import equiv_up_to_global_phase, unitary_of
from blochsynth.transpile import (DEFAULT_BASIS, NativeBasis, _lower, canonicalize,
                                  count_gates, load_basis, parse_basis,
                                  rewrite_to_basis)

from conftest import random_circuit


def test_h_rule_golden():
    out = rewrite_to_basis(Circuit(1, (h(0),)))
    assert out.gates == (rz(PI_2, 0), sx(0), rz(PI_2, 0))


def test_diagonal_and_y_rules():
    assert rewrite_to_basis(Circuit(1, (t(0),))).gates == (rz(Angle(1, 4), 0),)
    assert rewrite_to_basis(Circuit(1, (s(0),))).gates == (rz(PI_2, 0),)
    assert rewrite_to_basis(Circuit(1, (y(0),))).gates == (rz(PI, 0), x(0))
    # I is a basis member, so it survives the rewrite; canonicalize drops it
    assert rewrite_to_basis(Circuit(1, (i(0),))).gates == (i(0),)


def test_cx_and_swap_rules():
    out = rewrite_to_basis(Circuit(2, (cx(0, 1),)))
    assert [g.kind for g in out.gates] == [GateKind.RZ, GateKind.SX, GateKind.RZ,
                                           GateKind.CZ,
                                           GateKind.RZ, GateKind.SX, GateKind.RZ]
    assert all(g.qubits == (1,) for g in out.gates if g.kind != GateKind.CZ)
    swapped = rewrite_to_basis(Circuit(2, (swap(0, 1),)))
    assert sum(1 for g in swapped.gates if g.kind == GateKind.CZ) == 3


def test_rewrite_rejects_gates_without_a_rule():
    bare = NativeBasis("bare", frozenset({GateKind.RZ}), frozenset())
    with pytest.raises(ValueError, match="no rewrite rule"):
        rewrite_to_basis(Circuit(1, (sx(0),)), bare)


def test_rewrite_respects_the_requested_basis():
    keep_h = NativeBasis("hcz", frozenset({GateKind.H}), frozenset({GateKind.CZ}))
    out = rewrite_to_basis(Circuit(2, (cx(0, 1),)), keep_h)
    assert out.gates == (h(1), cz(0, 1), h(1))


def test_canonicalize_merges_and_cancels():
    merged = canonicalize(Circuit(1, (rz(Angle(1, 4), 0), rz(Angle(1, 4), 0))))
    assert merged.gates == (rz(PI_2, 0),)
    cancelled = canonicalize(Circuit(1, (rz(Angle(1, 4), 0), rz(Angle(-1, 4), 0))))
    assert cancelled.gates == ()
    assert canonicalize(Circuit(1, (i(0), rz(ZERO, 0)))).gates == ()


def test_canonicalize_never_crosses_a_barrier_gate():
    c = Circuit(2, (rz(Angle(1, 4), 0), cz(0, 1), rz(Angle(-1, 4), 0)))
    out = canonicalize(c)
    assert [g.kind for g in out.gates] == [GateKind.RZ, GateKind.CZ, GateKind.RZ]
    # an RZ on an untouched wire floats to the end, still unmerged with nothing
    other = canonicalize(Circuit(2, (rz(Angle(1, 4), 1), sx(0))))
    assert other.gates == (sx(0), rz(Angle(1, 4), 1))


def test_canonicalize_flushes_in_wire_order():
    c = Circuit(2, (rz(Angle(1, 4), 1), rz(Angle(1, 4), 0), cz(0, 1)))
    out = canonicalize(c)
    assert out.gates == (rz(Angle(1, 4), 0), rz(Angle(1, 4), 1), cz(0, 1))
    # also when the gate lists its wires high first
    c = Circuit(2, (rz(Angle(1, 4), 1), rz(Angle(1, 2), 0), cx(1, 0)))
    assert canonicalize(c).gates == (rz(Angle(1, 2), 0), rz(Angle(1, 4), 1), cx(1, 0))


def test_canonicalize_is_idempotent_and_monotone():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rewrite_to_basis(random_circuit(rng, 3, 20, with_rz=True))
        once = canonicalize(c)
        assert canonicalize(once) == once
        assert len(once.gates) <= len(c.gates)


def test_canonicalize_preserves_the_unitary_up_to_global_phase():
    # RZ angles merge mod 2pi while the matrix is 4pi-periodic, so a merge
    # can flip the global sign; nothing beyond a global phase may change.
    rng = np.random.default_rng(12)
    for _ in range(50):
        c = rewrite_to_basis(random_circuit(rng, 3, 15, with_rz=True))
        assert equiv_up_to_global_phase(unitary_of(canonicalize(c)), unitary_of(c))


def test_count_gates():
    c = canonicalize(rewrite_to_basis(Circuit(2, (cx(0, 1),))))
    assert count_gates(c) == (6, 1)
    with pytest.raises(ValueError, match="non-native"):
        count_gates(Circuit(1, (h(0),)))


def test_lowering_every_clifford_t_kind_is_exact():
    for kind in sorted(set(GateKind) - {GateKind.RZ, GateKind.RX}, key=lambda k: k.value):
        qubits = (0,) if kind.n_qubits == 1 else (0, 1)
        c = Circuit(2, (Gate(kind, qubits),))
        out = canonicalize(rewrite_to_basis(c))
        for g in out.gates:
            assert DEFAULT_BASIS.contains(g)
        assert equiv_up_to_global_phase(unitary_of(out), unitary_of(c), tol=1e-12)


def test_lowering_random_circuits_up_to_global_phase():
    rng = np.random.default_rng(13)
    for _ in range(100):
        c = random_circuit(rng, 4, 25, with_rz=True)
        out = canonicalize(rewrite_to_basis(c))
        assert all(DEFAULT_BASIS.contains(g) for g in out.gates)
        assert equiv_up_to_global_phase(unitary_of(out), unitary_of(c), tol=1e-9)


def test_basis_validation():
    with pytest.raises(ValueError, match="not a single-qubit"):
        NativeBasis("bad", frozenset({GateKind.CZ}), frozenset())
    with pytest.raises(ValueError, match="not a two-qubit"):
        NativeBasis("bad", frozenset(), frozenset({GateKind.H}))


def test_parse_basis():
    basis = parse_basis("# comment\nsingle rz\nsingle sx\n\ntwo cz\n", name="mine")
    assert basis.name == "mine"
    assert basis.single_qubit == frozenset({GateKind.RZ, GateKind.SX})
    assert basis.two_qubit == frozenset({GateKind.CZ})
    with pytest.raises(ValueError, match="line 2"):
        parse_basis("single rz\nbogus line\n")
    with pytest.raises(ValueError, match="unknown gate"):
        parse_basis("single qq\n")


def test_load_basis_round_trip(tmp_path):
    path = tmp_path / "native.basis"
    path.write_text("single rz\nsingle sx\nsingle x\ntwo cz\n")
    basis = load_basis(path)
    assert basis.name == "native"
    assert GateKind.X in basis.single_qubit


# A plain reference lowering: the rule table written out again, expanded
# recursively with no memo, then canonicalized by summing Angles per wire and
# building every RZ anew.
REFERENCE_RULES = {
    GateKind.I: lambda q: (),
    GateKind.H: lambda q: (rz(PI_2, q[0]), sx(q[0]), rz(PI_2, q[0])),
    GateKind.Z: lambda q: (rz(PI, q[0]),),
    GateKind.S: lambda q: (rz(PI_2, q[0]),),
    GateKind.SDG: lambda q: (rz(-PI_2, q[0]),),
    GateKind.T: lambda q: (rz(Angle(1, 4), q[0]),),
    GateKind.TDG: lambda q: (rz(Angle(-1, 4), q[0]),),
    GateKind.Y: lambda q: (z(q[0]), x(q[0])),
    GateKind.SXDG: lambda q: (z(q[0]), sx(q[0]), z(q[0])),
    GateKind.CX: lambda q: (h(q[1]), cz(*q), h(q[1])),
    GateKind.SWAP: lambda q: (cx(*q), cx(q[1], q[0]), cx(*q)),
}


def reference_lowering(c, basis):
    lowered = []

    def expand(g):
        if basis.contains(g):
            lowered.append(g)
        elif g.kind in REFERENCE_RULES:
            for sub in REFERENCE_RULES[g.kind](g.qubits):
                expand(sub)
        else:
            raise ValueError(f"no rewrite rule takes {g.kind.value} into basis {basis.name}")

    for g in c.gates:
        expand(g)
    out, pending = [], {}

    def flush(q):
        angle = pending.pop(q, ZERO)
        if not angle.is_zero():
            out.append(rz(angle, q))

    for g in lowered:
        if g.kind == GateKind.RZ:
            pending[g.qubits[0]] = pending.get(g.qubits[0], ZERO) + g.angle
        elif g.kind != GateKind.I:
            for q in sorted(g.qubits):
                flush(q)
            out.append(g)
    for q in sorted(pending):
        flush(q)
    return tuple(out)


def lowering_outcome(lower, c, basis):
    """The lowered gates, or the error message when a gate has no rule."""
    try:
        return lower(c, basis)
    except ValueError as exc:
        return str(exc)


@st.composite
def repetitive_circuits(draw, kinds):
    """A 3-qubit circuit drawn from a pool of at most six distinct gates."""
    def gate(kind):
        qubits = draw(st.lists(st.integers(0, 2), min_size=kind.n_qubits,
                               max_size=kind.n_qubits, unique=True))
        angle = Angle(draw(st.integers(-8, 8)), 8) if kind.takes_angle else None
        return Gate(kind, tuple(qubits), angle)

    pool = [gate(draw(st.sampled_from(kinds)))
            for _ in range(draw(st.integers(1, 6)))]
    return Circuit(3, tuple(draw(st.lists(st.sampled_from(pool), max_size=60))))


H_RZ_CX = NativeBasis("h-rz-cx", frozenset({GateKind.H, GateKind.RZ}),
                      frozenset({GateKind.CX}))
# The kinds that have a rule path into H_RZ_CX.
INTO_H_RZ_CX = (GateKind.I, GateKind.H, GateKind.Z, GateKind.S, GateKind.SDG,
                GateKind.T, GateKind.TDG, GateKind.RZ, GateKind.CX, GateKind.SWAP)


@pytest.mark.parametrize("basis, kinds", [
    (DEFAULT_BASIS, tuple(GateKind)),
    (H_RZ_CX, INTO_H_RZ_CX),
    (H_RZ_CX, tuple(GateKind)),   # mostly "no rewrite rule" errors
], ids=["default", "h-rz-cx", "h-rz-cx-all-kinds"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_lowering_matches_the_reference(basis, kinds, data):
    c = data.draw(repetitive_circuits(kinds))
    ours = lowering_outcome(
        lambda c, basis: canonicalize(rewrite_to_basis(c, basis)).gates, c, basis)
    assert ours == lowering_outcome(reference_lowering, c, basis)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), n_gates=st.integers(0, 40),
       basis=st.sampled_from((DEFAULT_BASIS, H_RZ_CX)))
def test_walk_equals_canonicalized_rewrite_on_random_circuits(seed, n, n_gates, basis):
    # The full IR, SWAP included; under H_RZ_CX most draws hold a kind with
    # no rule into it, and then both must fail on the same gate.
    c = random_circuit(np.random.default_rng(seed), n, n_gates, with_rz=True)
    ours = lowering_outcome(lambda c, b: tuple(_lower(c.gates, b)), c, basis)
    assert ours == lowering_outcome(
        lambda c, b: canonicalize(rewrite_to_basis(c, b)).gates, c, basis)


def test_repeated_gates_reuse_one_expansion():
    lowered = rewrite_to_basis(Circuit(2, (cx(0, 1), h(0), cx(0, 1)))).gates
    # the second CX (after the three gates of H) is the first one's gates
    assert len(lowered) == 17
    assert all(a is b for a, b in zip(lowered[:7], lowered[10:]))
    # a lone RZ passes through canonicalize as the same gate
    lone = rz(Angle(1, 8), 1)
    assert canonicalize(Circuit(2, (lone, cz(0, 1)))).gates[0] is lone

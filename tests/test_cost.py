"""Depth, WTQC, the costing pipeline, and reference-row comparisons."""
import re
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochsynth.baselines import naive_synth
from blochsynth.cli import parse_bundled
from blochsynth.cost import (REFERENCE_COSTS, UNIT_WEIGHTS, CostReport, cost_pipeline,
                             depth, report_deviations, wtqc)
from blochsynth.angles import PI_2, Angle
from blochsynth.ir import Circuit, Gate, GateKind, cx, cz, h, rz, swap
from blochsynth.layout import (Mapping, find_placement, heavy_hex, make_layout,
                               parse_layout, route)
from blochsynth.transpile import (DEFAULT_BASIS, NativeBasis, _lower, canonicalize,
                                  rewrite_to_basis)
from blochsynth.synthesis import OPERATOR_RANGES, synth

from conftest import random_circuit

TORINO = heavy_hex(6, 3)
STAR5 = make_layout("star5", [(0, 1), (0, 2), (0, 3), (0, 4)])

# Frozen pipeline results under unit weights: torino for n <= 4, the star
# for n = 5 (no heavy-hex vertex has the degree a 5-wire template needs).
PIPELINE_GOLDENS = {
    ("cv", 2): (10, 1, 0, 11),
    ("cv", 4): (40, 7, 0, 47),
    ("and", 3): (20, 3, 0, 23),
    ("and", 4): (40, 7, 0, 47),
    ("and", 5): (80, 15, 0, 95),
    ("nand", 4): (40, 7, 0, 47),
    ("or", 4): (40, 7, 0, 47),
    ("or", 5): (80, 15, 0, 95),
    ("nor", 4): (40, 7, 0, 47),
    ("implication", 3): (20, 3, 0, 23),
    ("inhibition", 3): (20, 3, 0, 23),
    ("fredkin", 3): (32, 5, 0, 31),
    ("fredkin", 4): (52, 9, 0, 55),
    ("miller", 4): (84, 13, 0, 79),
}

# Frozen pipeline results of every textbook circuit on ibm_torino: these
# couple controls to each other, so from n = 3 on routing inserts SWAPs (XC)
# and the depth pays for lowering each of them.
ROUTED_TEXTBOOK_GOLDENS = {
    ("toffoli", 2): (6, 1, 0, 7),
    ("toffoli", 3): (37, 6, 1, 53),
    ("toffoli", 4): (180, 34, 29, 455),
    ("toffoli", 5): (504, 98, 106, 1348),
    ("and", 2): (6, 1, 0, 7),
    ("and", 3): (37, 6, 1, 53),
    ("and", 4): (180, 34, 29, 455),
    ("and", 5): (504, 98, 106, 1348),
    ("nand", 2): (7, 1, 0, 8),
    ("nand", 3): (38, 6, 1, 53),
    ("nand", 4): (181, 34, 29, 455),
    ("nand", 5): (505, 98, 106, 1348),
    ("or", 2): (9, 1, 0, 8),
    ("or", 3): (42, 6, 1, 54),
    ("or", 4): (187, 34, 29, 457),
    ("or", 5): (513, 98, 106, 1350),
    ("nor", 2): (8, 1, 0, 7),
    ("nor", 3): (41, 6, 1, 54),
    ("nor", 4): (186, 34, 29, 457),
    ("nor", 5): (512, 98, 106, 1350),
    ("implication", 3): (40, 6, 1, 54),
    ("inhibition", 3): (39, 6, 1, 54),
    ("cv", 2): (16, 2, 0, 17),
    ("cv", 4): (180, 34, 29, 455),
    ("cvdg", 2): (16, 2, 0, 17),
    ("cvdg", 4): (180, 34, 29, 455),
    ("fredkin", 3): (48, 8, 2, 73),
    ("fredkin", 4): (190, 36, 31, 479),
    ("miller", 3): (110, 18, 7, 186),
    ("miller", 4): (110, 18, 7, 186),
}


def test_depth_goldens():
    assert depth(Circuit(2, ())) == 0
    assert depth(Circuit(2, (h(0), h(1)))) == 1
    assert depth(Circuit(2, (h(0), h(0)))) == 2
    assert depth(Circuit(2, (h(0), cz(0, 1), h(1)))) == 3
    assert depth(Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 1)))) == 3


def test_depth_against_precedence_dag():
    # independent oracle: longest chain of wire-sharing gates by index DP
    rng = np.random.default_rng(23)
    for _ in range(30):
        c = random_circuit(rng, 4, 20)
        longest = [0] * len(c.gates)
        for j, g in enumerate(c.gates):
            prior = [longest[i] for i in range(j)
                     if set(c.gates[i].qubits) & set(g.qubits)]
            longest[j] = 1 + max(prior, default=0)
        assert depth(c) == max(longest, default=0)


def reference_depth(c):
    """depth as first written: one generator over each gate's wires."""
    frontier = [0] * c.n_qubits
    for g in c.gates:
        step = 1 + max(frontier[q] for q in g.qubits)
        for q in g.qubits:
            frontier[q] = step
    return max(frontier, default=0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_depth_matches_the_reference(data):
    n = data.draw(st.integers(1, 6))
    kinds = [k for k in GateKind if k.n_qubits <= n]
    drawn = data.draw(st.lists(st.tuples(st.sampled_from(kinds), st.permutations(range(n))),
                               max_size=40))
    c = Circuit(n, tuple(Gate(kind, tuple(wires[:kind.n_qubits]),
                              Angle(1, 8) if kind.takes_angle else None)
                         for kind, wires in drawn))
    assert depth(c) == reference_depth(c)


def test_wtqc_goldens():
    assert wtqc((6, 1, 0, 7)) == 14.0
    assert wtqc((34, 3, 0, 29)) == 66.0
    assert wtqc((1, 2, 3, 4), (2.0, 0.5, 1.0, 0.25)) == 7.0


def test_wtqc_validation():
    with pytest.raises(ValueError, match="four"):
        wtqc((1, 2, 3))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            wtqc((1, 2, 3, 4), (1.0, bad, 1.0, 1.0))


def test_cost_report_properties():
    report = CostReport(6, 1, 0, 7)
    assert report.counts == (6, 1, 0, 7)
    assert report.wtqc == 14.0
    assert report.weights == UNIT_WEIGHTS


def test_pipeline_without_a_layout():
    report = cost_pipeline(synth("cv", 2))
    assert report.counts == (10, 1, 0, 11)
    assert report.mapping is None


@pytest.mark.parametrize("key", sorted(PIPELINE_GOLDENS))
def test_pipeline_goldens(key):
    kind, n = key
    layout = STAR5 if n == 5 else TORINO
    report = cost_pipeline(synth(kind, n), layout)
    assert report.counts == PIPELINE_GOLDENS[key]
    assert report.xc == 0
    assert report.wtqc == float(sum(PIPELINE_GOLDENS[key]))


def test_routed_textbook_goldens_cover_every_operator():
    assert set(ROUTED_TEXTBOOK_GOLDENS) == {
        (kind, n) for kind, sizes in OPERATOR_RANGES.items() for n in sizes}


@pytest.mark.parametrize("key", sorted(ROUTED_TEXTBOOK_GOLDENS))
def test_routed_textbook_goldens(key):
    report = cost_pipeline(naive_synth(*key), parse_bundled("ibm_torino"))
    assert report.counts == ROUTED_TEXTBOOK_GOLDENS[key]


def test_pipeline_star_placement_mapping():
    report = cost_pipeline(synth("and", 4), TORINO)
    assert report.mapping.physical == (3, 5, 4, 16)


def test_pipeline_explicit_mapping_and_cnot_mode():
    # a deliberately bad mapping forces one SWAP; cnots mode triples it
    c = Circuit(2, (h(1), cz(0, 1), h(1)))
    lay = make_layout("path4", [(0, 1), (1, 2), (2, 3)])
    spread = Mapping((0, 2))
    swaps = cost_pipeline(c, lay, mapping=spread)
    cnots = cost_pipeline(c, lay, mapping=spread, xc_mode="cnots")
    assert swaps.xc == 1 and cnots.xc == 3
    assert swaps.counts[:2] == cnots.counts[:2]
    assert swaps.d > depth(Circuit(2, (h(1), cz(0, 1), h(1))))


def test_pipeline_rejects_bad_xc_mode():
    with pytest.raises(ValueError, match="xc_mode"):
        cost_pipeline(Circuit(1, ()), xc_mode="edges")


def test_weights_flow_into_the_report():
    weights = (1.0, 10.0, 5.0, 0.0)
    report = cost_pipeline(synth("and", 3), TORINO, weights=weights)
    assert report.weights == weights
    assert report.wtqc == 20 + 10.0 * 3


def test_reference_rows_cover_the_benchmark():
    assert len(REFERENCE_COSTS) == 14
    assert all(ref[2] == 0 for ref in REFERENCE_COSTS.values())
    assert REFERENCE_COSTS[("cv", 2)] == (6, 1, 0, 7)
    assert all(n in OPERATOR_RANGES[kind] for kind, n in REFERENCE_COSTS)


def test_report_deviations():
    report = cost_pipeline(synth("and", 3), TORINO)
    notes = report_deviations("and", 3, report)
    assert notes == ("n1: ours=20 reference=34", "d: ours=23 reference=29")
    assert report_deviations("and", 2, report) == ()
    cv = cost_pipeline(synth("cv", 2), TORINO)
    cv_notes = report_deviations("cv", 2, cv)
    assert "n2" not in " ".join(cv_notes)   # N2 = 1 matches exactly
    assert "xc" not in " ".join(cv_notes)   # XC = 0 matches exactly


def test_bundled_star_matches_the_local_one():
    data = resources.files("blochsynth") / "data"
    star = parse_layout((data / "star5.layout").read_text(), "star5")
    assert star.edges == STAR5.edges


def _timed_depth(c, layout, mapping=None, basis=DEFAULT_BASIS):
    """Depth as the pipeline measured it by re-lowering every routed circuit."""
    native = canonicalize(rewrite_to_basis(c, basis))
    if mapping is None:
        mapping = find_placement(layout, native)
    routed, swaps = route(native, layout, mapping)
    return depth(canonicalize(rewrite_to_basis(routed, basis))), swaps


def test_pipeline_depth_matches_relowering_the_routed_circuit():
    seen = {True: 0, False: 0}
    for layout in (STAR5, parse_bundled("ibm_torino")):
        for kind, sizes in OPERATOR_RANGES.items():
            for n in sizes:
                for c in (synth(kind, n), naive_synth(kind, n)):
                    try:
                        want, swaps = _timed_depth(c, layout)
                    except ValueError as exc:
                        # textbook circuits at n >= 4 do not place on the star
                        with pytest.raises(ValueError, match=re.escape(str(exc))):
                            cost_pipeline(c, layout)
                        continue
                    assert cost_pipeline(c, layout).d == want, (layout.name, kind, n)
                    seen[swaps == 0] += 1
    assert seen[True] >= 30 and seen[False] >= 20


_H_RZ_CX = NativeBasis("h-rz-cx", frozenset({GateKind.H, GateKind.RZ}),
                       frozenset({GateKind.CX}))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pipeline_depth_matches_relowering_on_random_native_circuits(data):
    # Adjacent-only two-qubit gates on a path route without SWAPs under the
    # identity mapping; a shuffled mapping usually needs some.
    basis = data.draw(st.sampled_from((DEFAULT_BASIS, _H_RZ_CX)))
    n = data.draw(st.integers(2, 5))
    path = make_layout(f"path{n}", [(q, q + 1) for q in range(n - 1)])
    single = sorted(basis.single_qubit, key=lambda k: k.value)
    (two,) = basis.two_qubit
    gates = []
    for _ in range(data.draw(st.integers(0, 30))):
        if data.draw(st.booleans()):
            q = data.draw(st.integers(0, n - 2))
            gates.append(Gate(two, (q, q + 1) if data.draw(st.booleans()) else (q + 1, q)))
        else:
            kind = data.draw(st.sampled_from(single))
            angle = Angle(data.draw(st.integers(-3, 4)), 4) if kind.takes_angle else None
            gates.append(Gate(kind, (data.draw(st.integers(0, n - 1)),), angle))
    c = Circuit(n, tuple(gates))
    mapping = Mapping(tuple(data.draw(st.permutations(range(n)))))
    for m in (Mapping(tuple(range(n))), mapping):
        want, _ = _timed_depth(c, path, m, basis)
        assert cost_pipeline(c, path, m, basis=basis).d == want


def _relowered_depth(routed, basis=DEFAULT_BASIS):
    return depth(canonicalize(rewrite_to_basis(routed, basis)))


def _walk_depth(routed, basis=DEFAULT_BASIS):
    """D of a SWAP-routed circuit as cost_pipeline takes it: over the walk's list."""
    return depth(_lower(routed.gates, basis))


@pytest.mark.parametrize("angle", [-PI_2, PI_2])
@pytest.mark.parametrize("wire", [0, 1])
def test_lowered_depth_merges_an_rz_into_the_swap(angle, wire):
    # SWAP(0, 1) lowers to cx(0,1) cx(1,0) cx(0,1); its first gate is
    # H(1) = RZ(pi/2) SX RZ(pi/2), so RZ(-pi/2) on wire 1 merges to zero.
    routed = Circuit(3, (rz(angle, wire), swap(0, 1), cz(1, 2)))
    lowered = rewrite_to_basis(routed)
    merged = len(lowered.gates) - len(canonicalize(lowered).gates)
    assert merged == (2 if (wire, angle) == (1, -PI_2) else 1 if wire == 1 else 0)
    assert len(_lower(routed.gates, DEFAULT_BASIS)) == len(lowered.gates) - merged
    assert _walk_depth(routed) == _relowered_depth(routed)


@pytest.mark.parametrize("angle", [-PI_2, PI_2, Angle(1, 4)])
@pytest.mark.parametrize("wire", [0, 1])
def test_lowered_depth_flushes_a_trailing_rz_after_the_last_swap(angle, wire):
    # The last lowered gate on wire 1 is RZ(pi/2): a trailing RZ(-pi/2)
    # there merges to zero and is dropped when the walk ends.
    routed = Circuit(3, (cz(1, 2), swap(2, 1), swap(0, 1), rz(angle, wire)))
    last = [g for g in _lower(routed.gates, DEFAULT_BASIS) if wire in g.qubits][-1]
    assert (last.kind is GateKind.RZ) == ((wire, angle) != (1, -PI_2))
    assert _walk_depth(routed) == _relowered_depth(routed)


_SWAP_NATIVE = NativeBasis("h-rz-cx-swap", frozenset({GateKind.H, GateKind.RZ}),
                           frozenset({GateKind.CX, GateKind.SWAP}))


def test_lowered_depth_with_a_native_swap():
    routed = Circuit(3, (rz(-PI_2, 1), swap(0, 1), rz(PI_2, 1), cx(1, 2), rz(PI_2, 0)))
    assert _walk_depth(routed, _SWAP_NATIVE) == _relowered_depth(routed, _SWAP_NATIVE) == 4
    path4 = make_layout("path4", [(0, 1), (1, 2), (2, 3)])
    c = Circuit(4, (h(0), cx(0, 3), rz(Angle(1, 4), 3), cx(3, 1), h(2), cx(2, 0), rz(PI_2, 1)))
    want, swaps = _timed_depth(c, path4, Mapping((0, 1, 2, 3)), _SWAP_NATIVE)
    assert swaps > 0
    assert cost_pipeline(c, path4, Mapping((0, 1, 2, 3)), basis=_SWAP_NATIVE).d == want


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_depth_on_a_sparse_wide_layout_stays_small():
    # Four edges, but the largest id makes every routed circuit 2,000,001 wide.
    sparse = make_layout("sparse", [(0, 1), (1, 2), (2, 2000000), (2000000, 5)])
    c = synth("and", 4)
    native = canonicalize(rewrite_to_basis(c))
    mapping = find_placement(sparse, native)
    routed, swaps = route(native, sparse, mapping)
    assert swaps > 0 and routed.n_qubits == 2000001
    assert _peak_bytes(lambda: depth(route(native, sparse, mapping)[0])) < 1 << 20
    assert _peak_bytes(lambda: cost_pipeline(c, sparse)) < 1 << 20

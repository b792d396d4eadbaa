"""The values kept across calls: each table gives what a fresh build gives.

instantiate, _lower, find_placement and trace reuse immutable values that
earlier calls in the process built.  Each test here compares one of them
with a build that shares nothing with earlier calls, and the last one fills
every table past its bound.
"""
import json
import os
import pickle
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blochsynth
from blochsynth import layout as layout_module, templates, tracker, transpile
from blochsynth.angles import PI, PI_2, ZERO, Angle
from blochsynth.baselines import naive_synth
from blochsynth.cli import parse_bundled
from blochsynth.ir import Circuit, GateKind, cx, diagonal_gate, h, rz, sx, t, z
from blochsynth.layout import Mapping, find_placement, heavy_hex, make_layout, route
from blochsynth.synthesis import OPERATOR_RANGES, synth
from blochsynth.templates import Template, instantiate, make_template
from blochsynth.textio import emit_circuit
from blochsynth.tracker import trace
from blochsynth.transpile import DEFAULT_BASIS, NativeBasis, _lower

from conftest import random_circuit
from test_tracker import _reference_trace

# A second basis: H and CX stay native, so H, CX and SWAP lower unlike under
# DEFAULT_BASIS, and X, SX, Y and CZ have no rule into it.
H_RZ_CX = NativeBasis("h_rz_cx", frozenset({GateKind.H, GateKind.RZ}),
                      frozenset({GateKind.CX}))


def _reference_instance(template, thetas, ax2_phase):
    """instantiate, built gate by gate from the public constructors."""
    tgt = template.target_wire
    gates = [h(tgt)]
    for angle, control in zip(thetas, template.schedule + (None,)):
        if not angle.is_zero():
            gates.append(diagonal_gate(angle, tgt))
        if control is not None:
            gates.append(cx(template.wire_of_control(control), tgt))
    if template.n_qubits >= 3 and ax2_phase is not None and not ax2_phase.is_zero():
        gates.append(z(tgt))
    gates.append(h(tgt))
    return Circuit(template.n_qubits, tuple(gates))


_ANGLES = st.one_of(
    st.builds(Angle, st.integers(-300, 300), st.sampled_from((1, 2, 4, 8, 16, 32, 64))),
    st.sampled_from((ZERO, PI, PI_2, Angle(1, 4), Angle(-1, 4), Angle(-1, 2))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_instantiate_equals_a_gate_by_gate_build(data):
    n = data.draw(st.integers(2, 5))
    base = make_template(n)
    schedule = base.schedule if data.draw(st.booleans()) else tuple(
        data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=17)))
    # Two equal templates that are distinct objects share one table.
    first = Template(n, base.control_wires, base.target_wire, schedule)
    second = Template(n, base.control_wires, base.target_wire, schedule)
    assert first == second and first is not second
    thetas = tuple(data.draw(_ANGLES) for _ in range(len(schedule) + 1))
    ax2_phase = data.draw(st.sampled_from((None, ZERO, PI, PI_2)))
    want = _reference_instance(first, thetas, ax2_phase)
    for template in (first, second, first):
        assert instantiate(template, thetas, ax2_phase) == want


def _lowering_circuits():
    """Designs, textbook circuits, their routings on ibm_torino (SWAPs), and
    random circuits over every kind."""
    torino = parse_bundled("ibm_torino")
    circuits = [synth(kind, n) for kind, sizes in OPERATOR_RANGES.items() for n in sizes]
    circuits += [naive_synth(kind, n) for kind, n in
                 (("and", 3), ("or", 4), ("cv", 2), ("fredkin", 3), ("miller", 3))]
    circuits += [route(c, torino, Mapping(tuple(range(20, 20 + 2 * c.n_qubits, 2))))[0]
                 for c in circuits[::3]]
    rng = np.random.default_rng(30)
    circuits += [random_circuit(rng, int(rng.integers(1, 6)), 30, with_rz=True)
                 for _ in range(40)]
    return circuits


def _lowered(c, basis):
    try:
        return emit_circuit(Circuit(c.n_qubits, _lower(c.gates, basis)))
    except ValueError as exc:
        return f"error: {exc}"


# Each call in the child starts from empty tables.
_FRESH_LOWERING = """\
import json, sys
from blochsynth import transpile
from blochsynth.ir import Circuit, GateKind
from blochsynth.textio import emit_circuit, parse_circuit
from blochsynth.transpile import DEFAULT_BASIS, NativeBasis, _lower

H_RZ_CX = NativeBasis("h_rz_cx", frozenset({GateKind.H, GateKind.RZ}),
                      frozenset({GateKind.CX}))
out = []
for text in json.load(sys.stdin):
    c = parse_circuit(text)
    for basis in (DEFAULT_BASIS, H_RZ_CX):
        transpile._expander.cache_clear()
        transpile._merged_rz.cache_clear()
        try:
            out.append(emit_circuit(Circuit(c.n_qubits, _lower(c.gates, basis))))
        except ValueError as exc:
            out.append(f"error: {exc}")
print(json.dumps(out))
"""


def test_lowering_with_filled_tables_equals_a_fresh_process():
    circuits = _lowering_circuits()
    # Alternate the two bases, twice: the second round reads filled tables.
    rounds = [[_lowered(c, basis) for c in circuits for basis in (DEFAULT_BASIS, H_RZ_CX)]
              for _ in range(2)]
    assert rounds[0] == rounds[1]
    assert any(text.startswith("error: ") for text in rounds[0])   # X has no h_rz_cx rule
    assert any("\nswap " in emit_circuit(c) for c in circuits)
    package_root = str(Path(blochsynth.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    done = subprocess.run([sys.executable, "-c", _FRESH_LOWERING], capture_output=True,
                          text=True, env=env, timeout=120,
                          input=json.dumps([emit_circuit(c) for c in circuits]))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == rounds[1]
    # A lone RZ still passes through as the very gate that came in.
    lone = rz(Angle(3, 16), 0)
    assert _lower((lone, sx(0)), DEFAULT_BASIS)[0] is lone


def _placement(layout, c):
    try:
        return find_placement(layout, c)
    except ValueError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("name", ["star5", "ibm_torino", "heavy_hex_2x2"])
def test_find_placement_equals_a_memo_free_search(name):
    layout = heavy_hex(2, 2) if name == "heavy_hex_2x2" else parse_bundled(name)
    rebuilt = make_layout(layout.name, layout.edges, layout.qubits)
    copied = pickle.loads(pickle.dumps(layout))
    assert rebuilt == layout == copied
    rng = np.random.default_rng(11)
    for _ in range(120):
        # Few gates on few wires, so pair sets recur in other circuits.
        c = random_circuit(rng, int(rng.integers(1, 7)), int(rng.integers(0, 9)))
        # A new instance has an empty memo: its answer is the search's own.
        fresh = make_layout(layout.name, layout.edges, layout.qubits)
        want = _placement(fresh, c)
        for kept in (layout, rebuilt, copied):
            assert _placement(kept, c) == want
    assert 0 < len(layout._placements) <= layout_module.MAX_PLACEMENTS


def test_every_table_stays_within_its_bound_and_reads_right_after_eviction():
    # Lowering: a T, an RZ and an H on each of 10,000 wires.  T, RZ and the
    # H's first RZ merge into one run, which its SX flushes; its last RZ is
    # flushed at the end.
    wires = 10_000
    big = Circuit(wires, tuple(g for q in range(wires) for g in (t(q), rz(Angle(1, 8), q), h(q))))
    small = synth("and", 5).gates
    before = _lower(small, DEFAULT_BASIS)
    want = [g for q in range(wires) for g in (rz(Angle(7, 8), q), sx(q))]
    want += [rz(PI_2, q) for q in range(wires)]
    assert _lower(big.gates, DEFAULT_BASIS) == want
    assert _lower(big.gates, DEFAULT_BASIS) == want
    assert _lower(small, DEFAULT_BASIS) == before
    expand = transpile._expander(DEFAULT_BASIS)
    for table in (expand, transpile._merged_rz):
        info = table.cache_info()
        assert info.currsize == info.maxsize < wires

    # Placement: 1,000 distinct pair sets on five wires.
    layout = heavy_hex(2, 2)
    pairs = list(combinations(range(5), 2))
    circuits = [Circuit(5, tuple(cx(a, b) for k, (a, b) in enumerate(pairs) if code >> k & 1))
                for code in range(1000)]
    placed = [find_placement(layout, c) for c in circuits]
    assert len(layout._placements) == layout_module.MAX_PLACEMENTS < len(circuits)
    for c, mapping in zip(circuits[:40], placed):   # the oldest keys were evicted
        assert find_placement(layout, c) == mapping == find_placement(
            make_layout(layout.name, layout.edges, layout.qubits), c)

    # Templates: every target wire of a 70-wire template, with 128 thetas each.
    n = 70
    for target in range(n):
        controls = tuple(w for w in range(n) if w != target)
        template = Template(n, controls, target, (1, 2, 1) * 42 + (3,))
        thetas = tuple(Angle(u, 64) for u in range(128))
        assert instantiate(template, thetas, PI) == _reference_instance(template, thetas, PI)
    info = templates._gates_of.cache_info()
    assert info.currsize == info.maxsize
    assert instantiate(make_template(5), (Angle(1, 16),) * 16, PI) == \
        _reference_instance(make_template(5), (Angle(1, 16),) * 16, PI)

    # Tracker: traces on every width up to 80, each CNOT after a new theta.
    for n in range(2, 81):
        gates = [h(0)]
        for w in range(1, n):
            gates += [rz(Angle(w * n, 64), 0), cx(w, 0)]
        c = Circuit(n, tuple(gates + [h(0)]))
        for mask in (0, 2 ** (n - 1) - 1):
            got = trace(c, mask)
            assert (got, repr(got)) == (_reference_trace(c, mask), repr(_reference_trace(c, mask)))
    for table in (tracker._event, tracker._controls):
        info = table.cache_info()
        assert info.currsize == info.maxsize

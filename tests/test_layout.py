"""Coupling graphs, heavy-hex generation, placement, and SWAP routing."""
from collections import deque
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochsynth.angles import Angle
from blochsynth.baselines import naive_synth
from blochsynth.ir import Circuit, Gate, GateKind, cx, cz, h, swap, t
from blochsynth.layout import (Layout, LayoutParseError, Mapping, emit_layout,
                               find_chain, find_placement, heavy_hex,
                               load_layout, make_layout, parse_layout, route)
from blochsynth.simulator import permutation_unitary, unitary_of
from blochsynth.synthesis import OPERATOR_RANGES, synth
from blochsynth.transpile import canonicalize, rewrite_to_basis

from conftest import random_circuit


def path_layout(n):
    return make_layout(f"path{n}", [(k, k + 1) for k in range(n - 1)])


def test_layout_validation():
    with pytest.raises(ValueError, match="self-edge"):
        Layout("bad", frozenset({0}), frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="low-high"):
        Layout("bad", frozenset({0, 1}), frozenset({(1, 0)}))
    with pytest.raises(ValueError, match="undeclared"):
        Layout("bad", frozenset({0}), frozenset({(0, 1)}))
    assert make_layout("ok", [(1, 0)]).edges == frozenset({(0, 1)})
    assert make_layout("ok", [], qubits=(3,)).qubits == frozenset({3})


def test_adjacency_helpers():
    lay = make_layout("t", [(0, 1), (1, 2), (1, 3)])
    assert lay.neighbors(1) == (0, 2, 3)
    assert lay.degree(1) == 3 and lay.degree(0) == 1
    assert lay.adjacent(3, 1) and not lay.adjacent(0, 2)


def test_shortest_path():
    lay = path_layout(5)
    assert lay.shortest_path(0, 3) == (0, 1, 2, 3)
    assert lay.shortest_path(2, 2) == (2,)
    split = make_layout("split", [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        split.shortest_path(0, 3)


def test_mapping_validation():
    assert Mapping((2, 0, 1)).phys(0) == 2
    assert Mapping((2, 0, 1)).n_qubits == 3
    with pytest.raises(ValueError, match="injective"):
        Mapping((0, 0))
    with pytest.raises(ValueError, match="non-negative"):
        Mapping((-1, 0))


def test_heavy_hex_small():
    lay = heavy_hex(1, 1)
    # two 7-qubit lines (ids 0-6 and 9-15) joined by bridges 7 and 8
    assert len(lay.qubits) == 16
    assert lay.adjacent(0, 7) and lay.adjacent(7, 9)
    assert lay.adjacent(4, 8) and lay.adjacent(8, 13)
    assert max(lay.degree(q) for q in lay.qubits) <= 3
    with pytest.raises(ValueError):
        heavy_hex(0, 1)


def test_heavy_hex_torino_shape():
    lay = heavy_hex(6, 3)
    assert len(lay.qubits) == 129
    for a, b in ((0, 1), (13, 14), (0, 15), (15, 19), (19, 20)):
        assert lay.adjacent(a, b), (a, b)
    assert not lay.adjacent(14, 15)
    assert all(lay.degree(q) <= 3 for q in lay.qubits)
    # connected: BFS from 0 reaches everything
    seen, queue = {0}, deque([0])
    while queue:
        v = queue.popleft()
        for nb in lay.neighbors(v):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    assert seen == lay.qubits
    # odd gaps offset their bridges by two columns
    first_bridge_row1 = 19 + 15          # line 1 ends at 33; bridges start at 34
    assert lay.adjacent(19 + 2, first_bridge_row1)


def test_parse_and_emit_round_trip():
    lay = heavy_hex(2, 1)
    text = emit_layout(lay, header=("generated", "for testing"))
    assert text.startswith("# generated\n# for testing\nqubit 0\n")
    again = parse_layout(text, name=lay.name)
    assert again == lay


def test_parse_layout_errors():
    with pytest.raises(LayoutParseError, match="line 1"):
        parse_layout("edge 0\n")
    with pytest.raises(LayoutParseError, match="line 2"):
        parse_layout("qubit 0\nqubit -3\n")
    err = None
    try:
        parse_layout("qubit 0\n\nwhat is this\n")
    except LayoutParseError as exc:
        err = exc
    assert err is not None and err.line_no == 3


def test_load_layout(tmp_path):
    path = tmp_path / "ring.layout"
    path.write_text("edge 0 1\nedge 1 2\nedge 0 2\n")
    lay = load_layout(path)
    assert lay.name == "ring" and len(lay.edges) == 3


def test_bundled_layouts_parse():
    data = resources.files("blochsynth") / "data"
    torino = parse_layout((data / "ibm_torino.layout").read_text(), "ibm_torino")
    generated = heavy_hex(6, 3)
    assert torino.qubits == generated.qubits
    assert torino.edges == generated.edges
    star = parse_layout((data / "star5.layout").read_text(), "star5")
    assert star.degree(0) == 4 and len(star.qubits) == 5


def test_find_chain_lexicographic():
    assert find_chain(path_layout(6), 4).physical == (0, 1, 2, 3)
    # greedy from 0 dead-ends at 1 and must backtrack through 2
    lay = make_layout("y", [(0, 1), (0, 2), (2, 3)])
    assert find_chain(lay, 3).physical == (0, 2, 3)
    with pytest.raises(ValueError, match="no simple path"):
        find_chain(make_layout("tiny", [(0, 1)]), 3)
    with pytest.raises(ValueError):
        find_chain(path_layout(6), 6)


def test_find_chain_on_torino():
    lay = heavy_hex(6, 3)
    for n in range(2, 6):
        assert find_chain(lay, n).physical == tuple(range(n))


def test_find_placement_one_qubit():
    # one wire needs no edge: it goes to the lowest layout id
    one = Circuit(1, (h(0),))
    assert find_placement(heavy_hex(6, 3), one).physical == (0,)
    assert find_placement(load_layout_star(), one).physical == (0,)
    assert find_placement(make_layout("far", [(9, 7), (7, 3)]), one).physical == (3,)
    assert find_chain(path_layout(3), 1).physical == (0,)
    with pytest.raises(ValueError, match="supports 1..5 qubits, got 0"):
        find_chain(path_layout(3), 0)


def test_find_placement_chain_branch():
    lay = heavy_hex(6, 3)
    assert find_placement(lay, synth("and", 3)).physical == (0, 1, 2)
    assert find_placement(lay, Circuit(2, (h(0), t(1)))).physical == (0, 1)


def test_find_placement_star_branch():
    lay = heavy_hex(6, 3)
    mapping = find_placement(lay, synth("and", 4))
    # hub = first degree-3 vertex (4); spokes in sorted neighbor order
    assert mapping.physical == (3, 5, 4, 16)
    star = load_layout_star()
    assert find_placement(star, synth("and", 5)).physical == (1, 2, 0, 3, 4)


def load_layout_star():
    data = resources.files("blochsynth") / "data"
    return parse_layout((data / "star5.layout").read_text(), "star5")


def test_find_placement_falls_back_to_chain():
    # a triangle of interactions has no shared hub: honest chain + SWAPs
    triangle = Circuit(3, (cz(0, 1), cz(1, 2), cz(0, 2)))
    assert find_placement(path_layout(4), triangle).physical == (0, 1, 2)
    # star interactions on a degree-2 layout also fall back
    starish = Circuit(4, (cz(0, 2), cz(1, 2), cz(2, 3)))
    assert find_placement(path_layout(5), starish).physical == (0, 1, 2, 3)


def test_route_adjacent_gates_pass_through():
    lay = path_layout(3)
    c = Circuit(3, (h(0), cx(0, 1), cz(1, 2)))
    routed, xc = route(c, lay, Mapping((0, 1, 2)))
    assert xc == 0 and routed.gates == c.gates
    relabeled, xc = route(c, lay, Mapping((2, 1, 0)))
    assert xc == 0
    assert relabeled.gates == (h(2), cx(2, 1), cz(0, 1))


def test_route_inserts_swaps_along_the_path():
    lay = path_layout(4)
    c = Circuit(2, (cz(0, 1),))
    routed, xc = route(c, lay, Mapping((0, 3)))
    assert xc == 2
    assert routed.gates == (swap(0, 1), swap(1, 2), cz(2, 3))


def test_route_xc_is_path_distance_minus_one():
    for size in range(2, 7):
        lay = path_layout(size)
        for a in range(size):
            for b in range(size):
                if a == b:
                    continue
                _, xc = route(Circuit(2, (cz(0, 1),)), lay, Mapping((a, b)))
                assert xc == abs(a - b) - 1


def test_route_validates_the_mapping():
    lay = path_layout(3)
    with pytest.raises(ValueError, match="mapping covers"):
        route(Circuit(3, (h(0),)), lay, Mapping((0, 1)))
    with pytest.raises(ValueError, match="mapping covers 3 wires, circuit has 2"):
        route(Circuit(2, (h(0),)), lay, Mapping((0, 1, 2)))
    with pytest.raises(ValueError, match="not in"):
        route(Circuit(2, (h(0),)), lay, Mapping((0, 9)))


def final_positions(routed, mapping):
    pos = dict(enumerate(mapping.physical))
    loc = {p: w for w, p in pos.items()}
    for g in routed.gates:
        if g.kind == GateKind.SWAP:
            a, b = g.qubits
            wa, wb = loc.get(a), loc.get(b)
            loc[a], loc[b] = wb, wa
            if wa is not None:
                pos[wa] = b
            if wb is not None:
                pos[wb] = a
    return pos


def test_route_preserves_semantics_up_to_final_permutation():
    # Replaying the emitted SWAPs gives the final wire positions; undoing
    # that permutation must recover the original unitary exactly.  Logical
    # SWAPs are recast as CX so every output SWAP is routing-inserted.
    rng = np.random.default_rng(17)
    lay = path_layout(4)
    for _ in range(25):
        c = random_circuit(rng, 4, 12)
        c = Circuit(4, tuple(
            Gate(GateKind.CX, g.qubits) if g.kind == GateKind.SWAP else g
            for g in c.gates))
        routed, xc = route(c, lay, Mapping((0, 1, 2, 3)))
        pos = final_positions(routed, Mapping((0, 1, 2, 3)))
        sigma = tuple(
            sum(((y >> w) & 1) << pos[w] for w in range(4))
            for y in range(16))
        assert np.allclose(unitary_of(routed),
                           permutation_unitary(sigma) @ unitary_of(c), atol=1e-9)
        for g in routed.gates:
            if len(g.qubits) == 2:
                assert lay.adjacent(*g.qubits)


def test_route_output_spans_the_layout():
    lay = make_layout("pair", [(5, 6)])
    routed, _ = route(Circuit(2, (cz(0, 1),)), lay, Mapping((5, 6)))
    assert routed.n_qubits == 7 and routed.gates == (cz(5, 6),)


def reference_route(c, layout, mapping):
    """route as first written: every output gate built afresh, no relabel table."""
    if mapping.n_qubits != c.n_qubits:
        raise ValueError(f"mapping covers {mapping.n_qubits} wires, circuit has {c.n_qubits}")
    for p in mapping.physical:
        if p not in layout.qubits:
            raise ValueError(f"mapped qubit {p} not in {layout.name}")
    pos = dict(enumerate(mapping.physical))
    loc = {p: w for w, p in pos.items()}
    out = []
    xc = 0
    for g in c.gates:
        if len(g.qubits) == 1:
            out.append(Gate(g.kind, (pos[g.qubits[0]],), g.angle))
            continue
        a, b = g.qubits
        while not layout.adjacent(pos[a], pos[b]):
            hop = layout.shortest_path(pos[a], pos[b])[1]
            out.append(swap(pos[a], hop))
            xc += 1
            other = loc.get(hop)
            loc[pos[a]] = other
            if other is not None:
                pos[other] = pos[a]
            pos[a], loc[hop] = hop, a
        out.append(Gate(g.kind, (pos[a], pos[b]), g.angle))
    return Circuit(max(layout.qubits) + 1, tuple(out)), xc


@st.composite
def routing_cases(draw, max_id, kinds):
    """A connected layout on <= 8 scattered ids, a circuit over `kinds`, an injective mapping.

    Gates repeat from a small pool, as lowered circuits do, so the relabel
    table is hit as well as filled.
    """
    size = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, max_id), min_size=size, max_size=size, unique=True))
    edges = [(ids[k], ids[draw(st.integers(0, k - 1))]) for k in range(1, size)]
    for a, b in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=6)):
        if a != b:
            edges.append((a, b))
    layout = make_layout("random", edges, ids)
    n = draw(st.integers(1, min(size, 5)))
    mapping = Mapping(tuple(draw(st.permutations(ids))[:n]))
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from([k for k in kinds if k.n_qubits <= n]))
        wires = tuple(draw(st.permutations(range(n)))[:kind.n_qubits])
        angle = Angle(draw(st.integers(-7, 8)), 8) if kind.takes_angle else None
        pool.append(Gate(kind, wires, angle))
    gates = draw(st.lists(st.sampled_from(pool), max_size=30))
    return Circuit(n, tuple(gates)), layout, mapping


@settings(max_examples=100, deadline=None)
@given(routing_cases(40, tuple(GateKind)))
def test_route_matches_the_reference(case):
    c, layout, mapping = case
    routed, xc = route(c, layout, mapping)
    want, want_xc = reference_route(c, layout, mapping)
    assert routed.gates == want.gates
    assert xc == want_xc and routed.n_qubits == want.n_qubits


@settings(max_examples=40, deadline=None)
@given(routing_cases(7, tuple(k for k in GateKind if k != GateKind.SWAP)))
def test_route_preserves_the_unitary_on_random_layouts(case):
    # Every output SWAP is routing-inserted (the drawn circuits have none).
    # Idle and unused wires are tracked too, so the permutations are total.
    c, layout, mapping = case
    routed, _ = route(c, layout, mapping)
    width = routed.n_qubits
    full = Mapping(mapping.physical + tuple(q for q in range(width)
                                           if q not in mapping.physical))
    start = dict(enumerate(full.physical))
    end = final_positions(routed, full)

    def relabel(pos):
        return permutation_unitary(tuple(
            sum(((y >> w) & 1) << pos[w] for w in range(width))
            for y in range(2 ** width)))

    logical = unitary_of(Circuit(width, c.gates))
    assert np.allclose(unitary_of(routed),
                       relabel(end) @ logical @ relabel(start).T, atol=1e-9)
    for g in routed.gates:
        if len(g.qubits) == 2:
            assert layout.adjacent(*g.qubits)


GRID4 = make_layout("grid4x4", [(r * 4 + c, r * 4 + c + 1) for r in range(4) for c in range(3)]
                    + [(r * 4 + c, r * 4 + c + 4) for r in range(3) for c in range(4)])


@pytest.mark.parametrize("layout", [heavy_hex(6, 3), GRID4], ids=lambda lay: lay.name)
def test_route_breaks_ties_as_the_reference_on_textbook_circuits(layout, monkeypatch):
    # Textbook circuits couple controls to each other, so chain mappings
    # shifted along the ids force SWAPs where many shortest paths tie.
    # Lowered as the pipeline lowers them, the only SWAPs are routing's.
    searches = []
    counted = Layout.shortest_path

    def counting(self, src, dst):
        searches.append((src, dst))
        return counted(self, src, dst)

    routed_any = 0
    for kind, sizes in OPERATOR_RANGES.items():
        for n in sizes:
            native = canonicalize(rewrite_to_basis(naive_synth(kind, n)))
            chain = find_chain(layout, n).physical
            for shift in (0, 1, 5, 9):
                if not all(p + shift in layout.qubits for p in chain):
                    continue
                mapping = Mapping(tuple(p + shift for p in chain))
                want, want_xc = reference_route(native, layout, mapping)
                searches.clear()
                with monkeypatch.context() as m:
                    m.setattr(Layout, "shortest_path", counting)
                    routed, xc = route(native, layout, mapping)
                assert routed == want and xc == want_xc, (kind, n, shift)
                # one search per gate that arrives on non-adjacent wires
                late = sum(1 for prev, g in zip(want.gates, want.gates[1:])
                           if prev.kind is GateKind.SWAP and g.kind is not GateKind.SWAP)
                assert len(searches) == late, (kind, n, shift)
                routed_any += xc > 0
    assert routed_any >= 40

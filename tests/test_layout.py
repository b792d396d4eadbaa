"""Coupling graphs, heavy-hex generation, placement, and SWAP routing."""
import tracemalloc
from collections import deque
from importlib import resources
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blochsynth.angles import Angle
from blochsynth.baselines import naive_synth
from blochsynth.cli import main
from blochsynth.cost import cost_pipeline
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
    assert component(lay, 0) == lay.qubits     # connected
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
    assert find_placement(bundled("star5"), one).physical == (0,)
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
    # wire 0 on the lowest id next to a degree-3 vertex (3, next to 4);
    # the hub takes 4 and the other spokes its free neighbours ascending
    assert mapping.physical == (3, 5, 4, 16)
    star = bundled("star5")
    assert find_placement(star, synth("and", 5)).physical == (1, 2, 0, 3, 4)


def bundled(name):
    data = resources.files("blochsynth") / "data"
    return parse_layout((data / f"{name}.layout").read_text(), name)


def breadth_first(layout, q):
    """The ids connected to q, breadth-first from q, neighbours ascending."""
    seen, queue = {q: None}, deque([q])
    while queue:
        for nb in layout.neighbors(queue.popleft()):
            if nb not in seen:
                seen[nb] = None
                queue.append(nb)
    return list(seen)


def component(layout, q):
    """The ids connected to q."""
    return set(breadth_first(layout, q))


def test_find_placement_falls_back_to_chain():
    # a triangle of interactions is a cycle, which is never embedded:
    # honest chain + SWAPs
    triangle = Circuit(3, (cz(0, 1), cz(1, 2), cz(0, 2)))
    assert find_placement(path_layout(4), triangle).physical == (0, 1, 2)
    # star interactions on a degree-2 layout also fall back
    starish = Circuit(4, (cz(0, 2), cz(1, 2), cz(2, 3)))
    assert find_placement(path_layout(5), starish).physical == (0, 1, 2, 3)


def test_find_placement_falls_back_to_a_connected_set():
    # neither the ring nor a 4-chain fits a 3-spoke star: the first four
    # ids of a breadth-first walk from the lowest id
    ring = Circuit(4, (cz(0, 1), cz(1, 2), cz(2, 3), cz(3, 0)))
    hub = make_layout("hub", [(5, 1), (5, 2), (5, 3)])
    assert find_placement(hub, ring).physical == (1, 5, 2, 3)


def test_a_layout_without_n_connected_qubits_is_a_one_line_error(capsys, tmp_path):
    split = make_layout("split", [(0, 1), (2, 3)])
    with pytest.raises(ValueError) as exc:
        find_placement(split, synth("and", 3))
    assert str(exc.value) == "no connected set of 3 qubits in split"
    with pytest.raises(ValueError, match="^no connected set of 6 qubits in star5$"):
        find_placement(bundled("star5"), Circuit(6, (cz(0, 5),)))
    path = tmp_path / "split.layout"
    path.write_text(emit_layout(split))
    assert main(["cost", "--op", "and", "--n", "3", "--layout", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no connected set of 3 qubits in split\n"


def test_a_circuit_wider_than_the_layout_fails_before_any_per_wire_work(capsys, tmp_path):
    # 10**8 wires: a per-wire list alone would take gigabytes.
    torino, wide = bundled("ibm_torino"), Circuit(10 ** 8, (h(0), cx(0, 10 ** 8 - 1)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^no connected set of 100000000 qubits in ibm_torino$"):
            find_placement(torino, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    path = tmp_path / "wide.txt"
    path.write_text("qubits 100000000\nh 0\ncx 0 99999999\n")
    assert main(["cost", str(path), "--layout", "ibm_torino"]) == 2
    assert capsys.readouterr().err == "error: no connected set of 100000000 qubits in ibm_torino\n"
    with pytest.raises(ValueError, match="^no simple path of 1 qubits in empty$"):
        find_chain(make_layout("empty", []), 1)


def test_placement_search_is_bounded():
    # The search covers at most five wires with partners, so none of these
    # inputs is exponential in its width or deep enough to overflow the stack.
    with pytest.raises(ValueError, match="^no connected set of 13 qubits in path12$"):
        find_placement(path_layout(12), Circuit(13, (h(0),)))
    # wires with no partner take the lowest ids the search left free
    assert find_placement(path_layout(4), Circuit(3, (cz(1, 2),))).physical == (2, 0, 1)
    # four 5-chains and two adjacent degree-3 wires, which heavy-hex cannot
    # host: 26 wires with partners go straight to the breadth-first walk
    torino = bundled("ibm_torino")
    gates = [cz(5 * k + i, 5 * k + i + 1) for k in range(4) for i in range(4)]
    gates += [cz(20, 21), cz(20, 22), cz(20, 23), cz(21, 24), cz(21, 25)]
    placed = find_placement(torino, Circuit(26, tuple(gates))).physical
    assert placed == tuple(breadth_first(torino, 0)[:26])
    # so do chains of more than five wires, however long
    lattice = heavy_hex(20, 10)
    chain = Circuit(1000, tuple(cz(i, i + 1) for i in range(999)))
    assert find_placement(lattice, chain).physical == tuple(breadth_first(lattice, 0)[:1000])
    assert find_placement(torino, Circuit(6, (cz(0, 1), cz(1, 2), cz(2, 3), cz(3, 4), cz(4, 5)))
                          ).physical == (0, 1, 15, 2, 19, 3)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind, sizes in OPERATOR_RANGES.items()
                                    for n in sizes])
def test_benchmark_facing_placements(kind, n):
    # Designs interact only through the target: a star, which heavy-hex
    # hosts up to degree 3 and star5 at every size.  Textbook circuits
    # couple controls too and get the chain, which compare's XC and D
    # on ibm_torino rest on.
    torino = bundled("ibm_torino")
    design = synth(kind, n)
    for layout in (torino, bundled("star5")) if n <= 4 else (bundled("star5"),):
        assert cost_pipeline(design, layout).xc == 0, layout.name
    textbook = cost_pipeline(naive_synth(kind, n), torino)
    assert textbook.mapping == find_chain(torino, n)


@st.composite
def forest_cases(draw):
    """A layout that may be disconnected, and a circuit on <= 5 wires whose
    interaction pairs form a random forest."""
    layout = draw(scattered_layouts(40, connected=draw(st.booleans())))
    most = min(len(layout.qubits), 5)
    n = most - draw(st.integers(0, most - 1))
    label = draw(st.permutations(range(n)))
    pairs = [(label[k], label[draw(st.integers(0, k - 1))])
             for k in range(1, n) if draw(st.integers(0, 3))]
    gates = [cz(a, b) if draw(st.booleans()) else cz(b, a) for a, b in pairs]
    return layout, Circuit(n, tuple(draw(st.permutations(gates)))), pairs


@settings(max_examples=80, deadline=None)
@given(forest_cases())
@example((path_layout(5), Circuit(4, (cz(0, 2), cz(2, 1), cz(3, 2))), [(0, 2), (1, 2), (2, 3)]))
@example((make_layout("kite", [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4)]),   # 0-1-2 dead-ends
          Circuit(4, (cz(0, 1), cz(1, 2), cz(2, 3))), [(0, 1), (1, 2), (2, 3)]))
@example((make_layout("split", [(0, 1), (2, 3)]), Circuit(3, (cz(0, 1),)), [(0, 1)]))
@example((make_layout("split", [(0, 1), (2, 3), (4, 5)]), Circuit(3, (cz(2, 1), cz(1, 0))),
          [(1, 2), (0, 1)]))
def test_find_placement_embeds_a_forest_exactly_when_brute_force_does(case):
    layout, c, pairs = case
    n = c.n_qubits
    fits = any(all(layout.adjacent(m[a], m[b]) for a, b in pairs)
               for m in permutations(sorted(layout.qubits), n))
    try:
        mapping = find_placement(layout, c)
    except ValueError as exc:
        assert not fits
        assert str(exc) == f"no connected set of {n} qubits in {layout.name}"
        assert all(len(component(layout, q)) < n for q in layout.qubits)
        return
    assert set(mapping.physical) <= layout.qubits
    assert (route(c, layout, mapping)[1] == 0) == fits
    if not fits:
        assert set(mapping.physical) <= component(layout, mapping.physical[0])


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
def scattered_layouts(draw, max_id, connected=True):
    """A layout on <= 8 scattered ids: a random tree (a forest unless
    `connected`) plus up to six random extra edges."""
    size = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, max_id), min_size=size, max_size=size, unique=True))
    edges = [(ids[k], ids[draw(st.integers(0, k - 1))]) for k in range(1, size)
             if connected or draw(st.booleans())]
    for a, b in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=6)):
        if a != b:
            edges.append((a, b))
    return make_layout("random", edges, ids)


@st.composite
def routing_cases(draw, max_id, kinds):
    """A connected layout on <= 8 scattered ids, a circuit over `kinds`, an injective mapping.

    Gates repeat from a small pool, as lowered circuits do, so the relabel
    table is hit as well as filled.
    """
    layout = draw(scattered_layouts(max_id))
    ids = sorted(layout.qubits)
    size = len(ids)
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

"""
Coupling graphs, placement, and SWAP routing.

A Layout is an undirected graph over physical qubit ids (file-loadable, or
generated as a heavy-hex lattice).  find_placement puts the circuit's
interaction pairs onto adjacent ids by one search (a forest on at most five
wires), else the chain 0-1-...-(n-1), else any n connected qubits, and lets
routing pay the SWAP cost honestly; each layout remembers the mappings it
gave, keyed by wire count and pair set; find_chain is the chain case alone.
route inserts SWAPs greedily along shortest paths, moving the first endpoint
toward the second, and reports the inserted count as XC;
routes_without_swaps tells, without routing, whether that count is zero.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from pathlib import Path

from .angles import Record
from .ir import Circuit, Gate, swap


class LayoutParseError(ValueError):
    """A malformed layout file line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Layout(Record):
    _fields = ("name", "qubits", "edges")   # no __slots__: cached_property needs __dict__

    def __init__(self, name: str, qubits: frozenset[int], edges: frozenset[tuple[int, int]]):
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-edge on qubit {a}")
            if a > b:
                raise ValueError(f"edge ({a},{b}) must be stored low-high")
            if a not in qubits or b not in qubits:
                raise ValueError(f"edge ({a},{b}) references undeclared qubits")
        self._set(name, qubits, edges)

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each id's neighbours ascending, keyed in ascending id order."""
        nbrs: dict[int, list[int]] = {q: [] for q in sorted(self.qubits)}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {q: tuple(sorted(v)) for q, v in nbrs.items()}

    @cached_property
    def _placements(self) -> dict[tuple[int, frozenset], Mapping]:
        """find_placement's memo: (n, interaction pairs) -> mapping, oldest first."""
        return {}

    @cached_property
    def max_degree(self) -> int:
        return max(map(len, self._adjacency.values()), default=0)

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adjacency[q]

    def degree(self, q: int) -> int:
        return len(self._adjacency[q])

    def adjacent(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def shortest_path(self, src: int, dst: int) -> tuple[int, ...]:
        """The lexicographically smallest shortest path (BFS, sorted expansion)."""
        if src == dst:
            return (src,)
        parent = {src: src}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for nb in self.neighbors(v):
                if nb not in parent:
                    parent[nb] = v
                    if nb == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path))
                    queue.append(nb)
        raise ValueError(f"qubits {src} and {dst} are disconnected in {self.name}")


class Mapping(Record):
    __slots__ = _fields = ("physical",)   # index = logical wire

    def __init__(self, physical: tuple[int, ...]):
        if len(set(physical)) != len(physical):
            raise ValueError("mapping must be injective")
        if any(p < 0 for p in physical):
            raise ValueError("physical ids must be non-negative")
        self._set(physical)

    @property
    def n_qubits(self) -> int:
        return len(self.physical)


def make_layout(name: str, edges, qubits=()) -> Layout:
    """Build a Layout from edge pairs (declared qubits optional)."""
    norm = frozenset((min(a, b), max(a, b)) for a, b in edges)
    ids = frozenset(qubits) | frozenset(q for e in norm for q in e)
    return Layout(name, ids, norm)


MAX_PLACEMENTS = 256   # find_placement keys remembered per layout

MAX_HEAVY_HEX_SIDE = 64   # largest rows or cols: 64x64 has 20,995 qubits; ibm_torino is 6x3


def heavy_hex(rows: int, cols: int) -> Layout:
    """Heavy-hex lattice: horizontal lines joined by alternating bridge qubits.

    Lines are 4*cols + 3 wide; each gap holds cols + 1 bridges at column
    offsets 0, 4, 8, ... (even gaps) or 2, 6, 10, ... (odd gaps), so every
    vertex has degree <= 3.  Ids run row-major, line then its bridges.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if max(rows, cols) > MAX_HEAVY_HEX_SIDE:
        raise ValueError(f"rows and cols must be <= {MAX_HEAVY_HEX_SIDE}, got {rows}x{cols}")
    width = 4 * cols + 3
    stride = width + cols + 1
    edges = []
    for r in range(rows + 1):
        start = r * stride
        for c in range(width - 1):
            edges.append((start + c, start + c + 1))
        if r < rows:
            offset = 0 if r % 2 == 0 else 2
            for b in range(cols + 1):
                bridge = start + width + b
                col = offset + 4 * b
                edges.append((start + col, bridge))
                edges.append((bridge, (r + 1) * stride + col))
    return make_layout(f"heavy_hex_{rows}x{cols}", edges)


def parse_layout(text: str, name: str = "layout") -> Layout:
    """Parse `qubit <id>` / `edge <a> <b>` lines (# comments allowed)."""
    qubits: set[int] = set()
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "qubit" and len(parts) == 2:
                qubits.add(_parse_id(parts[1]))
            elif parts[0] == "edge" and len(parts) == 3:
                edges.append((_parse_id(parts[1]), _parse_id(parts[2])))
            else:
                raise ValueError(f"expected 'qubit <id>' or 'edge <a> <b>', got {line!r}")
        except ValueError as exc:
            raise LayoutParseError(line_no, str(exc)) from None
    return make_layout(name, edges, qubits)


def _parse_id(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"negative qubit id {value}")
    return value


def load_layout(path: str | Path) -> Layout:
    """Read a layout file."""
    path = Path(path)
    return parse_layout(path.read_text(), name=path.stem)


def emit_layout(layout: Layout, header: tuple[str, ...] = ()) -> str:
    """Render a Layout in the file format, deterministically sorted."""
    lines = [f"# {text}" for text in header]
    lines += [f"qubit {q}" for q in sorted(layout.qubits)]
    lines += [f"edge {a} {b}" for a, b in sorted(layout.edges)]
    return "\n".join(lines) + "\n"


def find_chain(layout: Layout, n: int) -> Mapping:
    """Map n wires onto the lexicographically smallest simple n-path."""
    if not 1 <= n <= 5:
        raise ValueError(f"chain placement supports 1..5 qubits, got {n}")
    if n <= len(layout.qubits) and (mapping := _embed(layout, n, zip(range(n), range(1, n)))):
        return mapping
    raise ValueError(f"no simple path of {n} qubits in {layout.name}")


def find_placement(layout: Layout, c: Circuit) -> Mapping:
    """Pick a mapping that makes every interaction adjacent when possible.

    Embeds the circuit's interaction pairs, else the chain 0-1-...-(n-1)
    (routing then reports a nonzero XC), else the first n qubits of a
    breadth-first walk from the lowest id whose component is big enough.
    The mapping depends only on n and the set of pairs, so each layout
    remembers it for the last MAX_PLACEMENTS such keys it placed.
    """
    n = c.n_qubits
    if n > len(layout.qubits):  # before any per-wire work: n comes from the circuit file
        raise ValueError(f"no connected set of {n} qubits in {layout.name}")
    key = (n, frozenset(g.qubits for g in c.gates if len(g.qubits) == 2))
    placements = layout._placements
    mapping = placements.get(key)
    if mapping is None:
        mapping = _place(layout, n, key[1])
        if len(placements) >= MAX_PLACEMENTS:
            del placements[next(iter(placements))]   # the oldest key goes first
        placements[key] = mapping
    return mapping


def _place(layout: Layout, n: int, pairs: frozenset[tuple[int, int]]) -> Mapping:
    """find_placement's search, for n wires with interaction pairs `pairs`."""
    if mapping := (_embed(layout, n, pairs) or _embed(layout, n, zip(range(n), range(1, n)))):
        return mapping
    seen: set[int] = set()
    for walk in ([q] for q in layout._adjacency if q not in seen):
        seen.update(walk)
        for v in walk:
            seen.update(fresh := [nb for nb in layout.neighbors(v) if nb not in seen])
            walk += fresh
            if len(walk) >= n:
                return Mapping(tuple(walk[:n]))
    raise ValueError(f"no connected set of {n} qubits in {layout.name}")


def _embed(layout: Layout, n: int, pairs) -> Mapping | None:
    """The first injective placement of n wires that makes every pair adjacent.

    None when there is none, when the pairs close a cycle, or when over five
    wires have partners.  Those go breadth-first from the lowest, partners
    ascending, each to the lowest free id next to its parent's (any id for a
    root) with enough neighbours; the rest then take the lowest free ids.
    The caller checks that the layout has at least n ids.
    """
    partners: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        partners[a].add(b)
        partners[b].add(a)
    need = [len(p) for p in partners]
    paired = [w for w in range(n) if need[w]]
    if len(paired) > 5 or max(need, default=0) > layout.max_degree:
        return None     # too many wires to search, or a degree no id has
    if sum(need) >= 2 * n:
        return None     # n pairs on n wires close a cycle: a quick exit before the walk
    parent: dict[int, int | None] = {}
    order: list[int] = []
    for root in paired:
        if root not in parent:
            parent[root] = None
            order.append(root)
            for w in order:     # earlier trees add nothing: their partners have parents
                for p in sorted(partners[w] - parent.keys()):
                    parent[p] = w
                    order.append(p)
    if sum(need) != 2 * (len(order) - list(parent.values()).count(None)):
        return None     # more pairs than a forest has edges: a cycle
    adjacency = layout._adjacency
    phys = [0] * n
    used: set[int] = set()

    def place(k: int) -> bool:
        if k == len(order):
            return True
        w, up = order[k], parent[order[k]]
        for q in adjacency if up is None else adjacency[phys[up]]:
            if q not in used and len(adjacency[q]) >= need[w]:
                phys[w] = q
                used.add(q)
                if place(k + 1):
                    return True
                used.discard(q)
        return False

    if not place(0):
        return None
    if len(paired) < n:
        spare = (q for q in adjacency if q not in used)
        phys = [phys[w] if need[w] else next(spare) for w in range(n)]
    return Mapping(tuple(phys))


def _check_mapping(c: Circuit, layout: Layout, mapping: Mapping) -> None:
    if mapping.n_qubits != c.n_qubits:
        raise ValueError(f"mapping covers {mapping.n_qubits} wires, circuit has {c.n_qubits}")
    for p in mapping.physical:
        if p not in layout.qubits:
            raise ValueError(f"mapped qubit {p} not in {layout.name}")


def routes_without_swaps(c: Circuit, layout: Layout, mapping: Mapping) -> bool:
    """Whether every two-qubit gate of c acts on adjacent ids under mapping.

    Exactly then route inserts no SWAP.  Raises what route raises for a
    mapping of the wrong width or with an id outside the layout.
    """
    _check_mapping(c, layout, mapping)
    phys, edges = mapping.physical, layout.edges
    for a, b in {g.qubits for g in c.gates if len(g.qubits) == 2}:
        a, b = phys[a], phys[b]
        if ((a, b) if a < b else (b, a)) not in edges:
            return False
    return True


def route(c: Circuit, layout: Layout, mapping: Mapping) -> tuple[Circuit, int]:
    """Rewrite onto physical ids, inserting SWAPs for non-adjacent gates.

    Greedy: each non-adjacent two-qubit gate walks its first endpoint along
    the shortest path toward the second, one SWAP per hop; XC is the number
    of SWAPs inserted, which stay SWAP-kind in the returned circuit.  Each
    distinct (gate, physical wires) pair is relabelled once per call.

    One search per gate gives the hops a search from each hop would: the
    path is the lexicographically smallest shortest one, and so is each of
    its suffixes from its first vertex (a smaller suffix would make a
    smaller whole path), while the second endpoint stays at its end.
    """
    _check_mapping(c, layout, mapping)
    pos = dict(enumerate(mapping.physical))
    loc = {p: w for w, p in pos.items()}
    relabelled: dict[tuple[Gate, tuple[int, ...]], Gate] = {}
    out: list[Gate] = []
    xc = 0
    for g in c.gates:
        if len(g.qubits) == 1:
            wires = (pos[g.qubits[0]],)
        else:
            a, b = g.qubits
            if not layout.adjacent(pos[a], pos[b]):
                for hop in layout.shortest_path(pos[a], pos[b])[1:-1]:
                    out.append(swap(pos[a], hop))
                    xc += 1
                    other = loc.get(hop)
                    loc[pos[a]] = other
                    if other is not None:
                        pos[other] = pos[a]
                    pos[a], loc[hop] = hop, a
            wires = (pos[a], pos[b])
        key = (g, wires)
        new = relabelled.get(key)
        if new is None:
            new = relabelled[key] = Gate(g.kind, wires, g.angle)
        out.append(new)
    return Circuit(max(layout.qubits) + 1, tuple(out)), xc

"""
Coupling graphs, placement, and SWAP routing.

A Layout is an undirected graph over physical qubit ids (file-loadable, or
generated as a heavy-hex lattice).  find_chain maps template wires onto the
lexicographically smallest simple path so the target lands mid-chain;
find_placement first tries that chain, then a star around a shared hub (the
n = 4 templates interact only through the target), and otherwise falls back
to the chain and lets routing pay the SWAP cost honestly.  route inserts
SWAPs greedily along shortest paths, moving the first endpoint toward the
second, and reports the inserted count as XC.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .ir import Circuit, Gate, swap


class LayoutParseError(ValueError):
    """A malformed layout file line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Layout:
    name: str
    qubits: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-edge on qubit {a}")
            if a > b:
                raise ValueError(f"edge ({a},{b}) must be stored low-high")
            if a not in self.qubits or b not in self.qubits:
                raise ValueError(f"edge ({a},{b}) references undeclared qubits")

    @cached_property
    def _adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {q: [] for q in self.qubits}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {q: tuple(sorted(v)) for q, v in nbrs.items()}

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


@dataclass(frozen=True)
class Mapping:
    physical: tuple[int, ...]   # index = logical wire

    def __post_init__(self):
        if len(set(self.physical)) != len(self.physical):
            raise ValueError("mapping must be injective")
        if any(p < 0 for p in self.physical):
            raise ValueError("physical ids must be non-negative")

    @property
    def n_qubits(self) -> int:
        return len(self.physical)

    def phys(self, logical: int) -> int:
        return self.physical[logical]


def make_layout(name: str, edges, qubits=()) -> Layout:
    """Build a Layout from edge pairs (declared qubits optional)."""
    norm = frozenset((min(a, b), max(a, b)) for a, b in edges)
    ids = frozenset(qubits) | frozenset(q for e in norm for q in e)
    return Layout(name, ids, norm)


def heavy_hex(rows: int, cols: int) -> Layout:
    """Heavy-hex lattice: horizontal lines joined by alternating bridge qubits.

    Lines are 4*cols + 3 wide; each gap holds cols + 1 bridges at column
    offsets 0, 4, 8, ... (even gaps) or 2, 6, 10, ... (odd gaps), so every
    vertex has degree <= 3.  Ids run row-major, line then its bridges.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
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
    for start in sorted(layout.qubits):
        path = _extend_path([start], n, layout)
        if path is not None:
            return Mapping(tuple(path))
    raise ValueError(f"no simple path of {n} qubits in {layout.name}")


def _extend_path(path: list[int], n: int, layout: Layout) -> list[int] | None:
    if len(path) == n:
        return path
    for nb in layout.neighbors(path[-1]):
        if nb not in path:
            found = _extend_path(path + [nb], n, layout)
            if found is not None:
                return found
    return None


def find_placement(layout: Layout, c: Circuit) -> Mapping:
    """Pick a mapping that makes every interaction adjacent when possible.

    Chain when all interacting wire pairs are consecutive, star when they
    share a hub wire and the layout has a vertex of sufficient degree,
    otherwise the plain chain (routing will then report a nonzero XC).
    """
    pairs = sorted({g.qubits if g.qubits[0] < g.qubits[1] else g.qubits[::-1]
                    for g in c.gates if len(g.qubits) == 2})
    if all(b == a + 1 for a, b in pairs):
        return find_chain(layout, c.n_qubits)
    hubs = set(pairs[0])
    for a, b in pairs[1:]:
        hubs &= {a, b}
    if hubs:
        placed = _star_placement(layout, c.n_qubits, min(hubs), pairs)
        if placed is not None:
            return placed
    return find_chain(layout, c.n_qubits)


def _star_placement(layout: Layout, n: int, hub: int,
                    pairs: list[tuple[int, int]]) -> Mapping | None:
    others = sorted({q for pair in pairs for q in pair} - {hub})
    if len(layout.qubits) < n:
        return None
    for v in sorted(layout.qubits):
        if layout.degree(v) >= len(others):
            assigned = {hub: v}
            assigned.update(zip(others, layout.neighbors(v)))
            spare = (q for q in sorted(layout.qubits) if q not in set(assigned.values()))
            return Mapping(tuple(assigned[w] if w in assigned else next(spare)
                                 for w in range(n)))
    return None


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
    if mapping.n_qubits != c.n_qubits:
        raise ValueError(f"mapping covers {mapping.n_qubits} wires, circuit has {c.n_qubits}")
    for p in mapping.physical:
        if p not in layout.qubits:
            raise ValueError(f"mapped qubit {p} not in {layout.name}")
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

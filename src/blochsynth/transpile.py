"""
Rewriting into a native gate basis and gate counting.

rewrite_to_basis expands every non-native gate through a fixed rule table
(H and CNOT through their {RZ, SX} / {H, CZ, H} sequences, SWAP through
three CNOTs) until only basis members remain; canonicalize merges adjacent
same-wire RZ gates and drops identities without reordering across two-qubit
gates, so N1/N2 counts are stable and reproducible.  One walk, _lower, does
both at once and is the only place the merge rule lives: the cost pipeline
lowers with it, and canonicalize is the walk under a basis that holds every
kind.  Lowering is exact up to global phase only (S -> RZ(pi/2) already
costs a phase).
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .angles import PI_2
from .ir import (Circuit, Gate, GateKind, DIAGONAL_PHASES,
                 cx, cz, rz, sx, x, z)


@dataclass(frozen=True)
class NativeBasis:
    name: str
    single_qubit: frozenset[GateKind]
    two_qubit: frozenset[GateKind]

    def __post_init__(self):
        for kind in self.single_qubit:
            if kind.n_qubits != 1:
                raise ValueError(f"{kind.value} is not a single-qubit gate")
        for kind in self.two_qubit:
            if kind.n_qubits != 2:
                raise ValueError(f"{kind.value} is not a two-qubit gate")

    def contains(self, gate: Gate) -> bool:
        return gate.kind in (self.single_qubit if gate.kind.n_qubits == 1
                             else self.two_qubit)


DEFAULT_BASIS = NativeBasis(
    "ibm",
    frozenset({GateKind.I, GateKind.X, GateKind.RX, GateKind.SX, GateKind.RZ}),
    frozenset({GateKind.CZ}))


def _expand_h(g: Gate) -> tuple[Gate, ...]:
    q = g.qubits[0]
    return (rz(PI_2, q), sx(q), rz(PI_2, q))


def _expand_diagonal(g: Gate) -> tuple[Gate, ...]:
    return (rz(DIAGONAL_PHASES[g.kind], g.qubits[0]),)


def _expand_y(g: Gate) -> tuple[Gate, ...]:
    q = g.qubits[0]
    return (z(q), x(q))


def _expand_sxdg(g: Gate) -> tuple[Gate, ...]:
    q = g.qubits[0]
    return (z(q), sx(q), z(q))


def _expand_cx(g: Gate) -> tuple[Gate, ...]:
    control, target = g.qubits
    return (Gate(GateKind.H, (target,)), cz(control, target),
            Gate(GateKind.H, (target,)))


def _expand_swap(g: Gate) -> tuple[Gate, ...]:
    a, b = g.qubits
    return (cx(a, b), cx(b, a), cx(a, b))


_RULES = {
    GateKind.I: lambda g: (),
    GateKind.H: _expand_h,
    GateKind.Z: _expand_diagonal,
    GateKind.S: _expand_diagonal,
    GateKind.SDG: _expand_diagonal,
    GateKind.T: _expand_diagonal,
    GateKind.TDG: _expand_diagonal,
    GateKind.Y: _expand_y,
    GateKind.SXDG: _expand_sxdg,
    GateKind.CX: _expand_cx,
    GateKind.SWAP: _expand_swap,
}


def _expander(basis: NativeBasis):
    """g -> its expansion into `basis`; each distinct gate is expanded once."""
    expansions: dict[Gate, tuple[Gate, ...]] = {}

    def expand(g: Gate) -> tuple[Gate, ...]:
        found = expansions.get(g)
        if found is None:   # an expansion may be () (I), never None
            if basis.contains(g):
                found = (g,)
            else:
                rule = _RULES.get(g.kind)
                if rule is None:
                    raise ValueError(f"no rewrite rule takes {g.kind.value} into basis {basis.name}")
                found = tuple(native for sub in rule(g) for native in expand(sub))
            expansions[g] = found
        return found
    return expand


def _lower(gates: Iterable[Gate], basis: NativeBasis) -> list[Gate]:
    """canonicalize(rewrite_to_basis(...)) of `gates`, in one walk.

    Each gate is expanded into the basis and its gates are merged as they
    come: an RZ pends on its wire, summed exactly; any other gate first
    flushes its wires' pending RZs, lowest wire first, dropping RZ(0); I is
    dropped.  A lone RZ is kept as the same gate; only a merge builds a new
    one.  Nothing is reordered across a gate.
    """
    rz_kind, i_kind = GateKind.RZ, GateKind.I
    native = basis.single_qubit | basis.two_qubit
    expand = _expander(basis)
    out: list[Gate] = []
    emit = out.append
    pending: dict[int, Gate] = {}
    for g in gates:
        for s in ((g,) if g.kind in native else expand(g)):
            kind = s.kind
            if kind is rz_kind:
                q = s.qubits[0]
                prior = pending.get(q)
                pending[q] = s if prior is None else rz(prior.angle + s.angle, q)
            elif kind is not i_kind:
                if pending:
                    qubits = s.qubits
                    for q in (sorted(qubits) if len(qubits) > 1 else qubits):
                        prior = pending.pop(q, None)
                        if prior is not None and not prior.angle.is_zero():
                            emit(prior)
                emit(s)
    out.extend(p for _, p in sorted(pending.items()) if not p.angle.is_zero())
    return out


# Every kind is native here, so _lower only merges.
_EVERY_KIND = NativeBasis(
    "any",
    frozenset(k for k in GateKind if k.n_qubits == 1),
    frozenset(k for k in GateKind if k.n_qubits == 2))


def rewrite_to_basis(c: Circuit, basis: NativeBasis = DEFAULT_BASIS) -> Circuit:
    """Expand gates through the rule table until only basis members remain.

    Each distinct gate is expanded once per call; repeats reuse its expansion.
    """
    expand = _expander(basis)
    return Circuit(c.n_qubits, tuple(s for g in c.gates for s in expand(g)))


def canonicalize(c: Circuit) -> Circuit:
    """Merge adjacent same-wire RZs, drop RZ(0)/I; never reorder across gates.

    A lone RZ is kept as the same gate; only a merge builds a new one.
    """
    return Circuit(c.n_qubits, _lower(c.gates, _EVERY_KIND))


def count_gates(c: Circuit, basis: NativeBasis = DEFAULT_BASIS) -> tuple[int, int]:
    """(N1, N2): single- and two-qubit native gate counts."""
    n1 = n2 = 0
    for g in c.gates:
        if not basis.contains(g):
            raise ValueError(f"non-native gate {g.kind.value} on {g.qubits}")
        if g.kind.n_qubits == 1:
            n1 += 1
        else:
            n2 += 1
    return n1, n2


def parse_basis(text: str, name: str = "basis") -> NativeBasis:
    """Parse `single <mnemonic>` / `two <mnemonic>` lines into a basis."""
    kinds = {k.value: k for k in GateKind}
    single: set[GateKind] = set()
    two: set[GateKind] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("single", "two"):
            raise ValueError(f"line {line_no}: expected 'single <gate>' or 'two <gate>'")
        kind = kinds.get(parts[1])
        if kind is None:
            raise ValueError(f"line {line_no}: unknown gate {parts[1]!r}")
        (single if parts[0] == "single" else two).add(kind)
    return NativeBasis(name, frozenset(single), frozenset(two))


def load_basis(path: str | Path) -> NativeBasis:
    """Read a basis definition file."""
    path = Path(path)
    return parse_basis(path.read_text(), name=path.stem)

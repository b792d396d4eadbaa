"""
Rewriting into a native gate basis and gate counting.

rewrite_to_basis expands every non-native gate through a fixed rule table
(H and CNOT through their {RZ, SX} / {H, CZ, H} sequences, SWAP through
three CNOTs) until only basis members remain; canonicalize merges adjacent
same-wire RZ gates, summing their angles as integer pi/64 units, and drops
identities without reordering across two-qubit gates, so N1/N2 counts are
stable and reproducible.  One walk, _lower, does
both at once and is the only place the merge rule lives: the cost pipeline
lowers with it, and canonicalize is the walk under a basis that holds every
kind.  Lowering is exact up to global phase only (S -> RZ(pi/2) already
costs a phase).

Gates are immutable, so each distinct gate is expanded once per process per
basis, and a merged RZ run's gate is built once per (wire, units); both
tables are bounded and filled on first use.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from pathlib import Path

from .angles import HALF_TURN, PI_2, TURN, UNIT_ANGLES, Record
from .ir import (Circuit, Gate, GateKind, DIAGONAL_PHASES,
                 cx, cz, rz, sx, x, z)


class NativeBasis(Record):
    __slots__ = _fields = ("name", "single_qubit", "two_qubit")

    def __init__(self, name: str, single_qubit: frozenset[GateKind],
                 two_qubit: frozenset[GateKind]):
        for kind in single_qubit:
            if kind.n_qubits != 1:
                raise ValueError(f"{kind.value} is not a single-qubit gate")
        for kind in two_qubit:
            if kind.n_qubits != 2:
                raise ValueError(f"{kind.value} is not a two-qubit gate")
        self._set(name, single_qubit, two_qubit)

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


@lru_cache(maxsize=8)   # bases in use at once: DEFAULT_BASIS and a user's few
def _expander(basis: NativeBasis):
    """g -> its expansion into `basis`, kept across calls in a bounded table."""
    @lru_cache(maxsize=4096)   # costing every registered row on ibm_torino fills ~60
    def expand(g: Gate) -> tuple[Gate, ...]:
        if basis.contains(g):
            return (g,)
        rule = _RULES.get(g.kind)
        if rule is None:
            raise ValueError(f"no rewrite rule takes {g.kind.value} into basis {basis.name}")
        return tuple(native for sub in rule(g) for native in expand(sub))
    return expand


@lru_cache(maxsize=4096)
def _merged_rz(q: int, units: int) -> Gate:
    """The RZ that a merged run of `units` pi/64 units on wire q flushes to."""
    return rz(UNIT_ANGLES[units], q)


def _lower(gates: Iterable[Gate], basis: NativeBasis) -> list[Gate]:
    """canonicalize(rewrite_to_basis(...)) of `gates`, in one walk.

    Each gate is expanded into the basis and its gates are merged as they
    come: an RZ pends on its wire, its angle summed exactly as an integer
    count of pi/64 units; any other gate first flushes its wires' pending
    runs, lowest wire first, dropping a run that sums to 0 mod 2pi; I is
    dropped.  A lone RZ is kept as the same gate; a run of several flushes
    to the (wire, units) table's gate.  Nothing is reordered across a gate.
    """
    rz_kind, i_kind = GateKind.RZ, GateKind.I
    native = basis.single_qubit | basis.two_qubit
    expand = _expander(basis)
    out: list[Gate] = []
    emit = out.append
    # wire -> [the run's only RZ, or None once it holds several; its sum in units]
    pending: dict[int, list] = {}

    def flush(q: int, run: list) -> None:
        units = run[1] % TURN
        if units:
            emit(run[0] or _merged_rz(q, units))

    for g in gates:
        for s in ((g,) if g.kind in native else expand(g)):
            kind = s.kind
            if kind is rz_kind:
                q = s.qubits[0]
                angle = s.angle
                units = angle.num * (HALF_TURN // angle.den)
                run = pending.get(q)
                if run is None:
                    pending[q] = [s, units]
                else:
                    run[0] = None
                    run[1] += units
            elif kind is not i_kind:
                if pending:
                    qubits = s.qubits
                    for q in (sorted(qubits) if len(qubits) > 1 else qubits):
                        run = pending.pop(q, None)
                        if run is not None:
                            flush(q, run)
                emit(s)
    for q, run in sorted(pending.items()):
        flush(q, run)
    return out


# Every kind is native here, so _lower only merges.
_EVERY_KIND = NativeBasis(
    "any",
    frozenset(k for k in GateKind if k.n_qubits == 1),
    frozenset(k for k in GateKind if k.n_qubits == 2))


def rewrite_to_basis(c: Circuit, basis: NativeBasis = DEFAULT_BASIS) -> Circuit:
    """Expand gates through the rule table until only basis members remain.

    Each distinct gate is expanded once per process per basis; repeats, in
    this call or a later one, reuse its expansion.
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

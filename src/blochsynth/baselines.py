"""
Textbook reference constructions for the compare benchmark.

These build each operator the conventional way — true multi-controlled-X
gates (the 6-CNOT Toffoli, parity-gadget phase ladders above two controls)
with X dressings for the complemented variants — so their transpiled cost
can be set against the template-based designs.  Every construction is
checked at build time against the exact target unitary (these are true
gates, not relative-phase ones, so equality holds up to global phase).
"""
from __future__ import annotations

from itertools import combinations

from .angles import PI, Angle
from .ir import Circuit, Gate, cx, diagonal_gate, h, x
from .ir import t as t_gate, tdg
# perfbench/tracing.py wraps this name here, so it stays importable.
from .simulator import unitary_of  # noqa: F401
from .simulator import phases_match, template_wires, unitary_columns
from .synthesis import Operator, SynthVerificationError, operator


def controlled_phase(angle: Angle, wires: tuple[int, ...]) -> tuple[Gate, ...]:
    """Phase gadget: e^{i*angle} on the all-ones subspace of the given wires.

    One diagonal rotation of +-angle/2^(k-1) per nonempty wire subset, each
    conjugated by a CNOT chain that collects the subset parity.
    """
    k = len(wires)
    base = Angle(angle.num, angle.den * 2 ** (k - 1))
    gates: list[Gate] = []
    for size in range(1, k + 1):
        rotation = base if size % 2 else -base
        for subset in combinations(sorted(wires), size):
            chain = [cx(w, subset[-1]) for w in subset[:-1]]
            gates += chain + [diagonal_gate(rotation, subset[-1])] + chain[::-1]
    return tuple(gates)


def _textbook_ccx(c1: int, c2: int, t: int) -> tuple[Gate, ...]:
    """The standard 6-CNOT, 7-T Toffoli."""
    return (h(t), cx(c2, t), tdg(t), cx(c1, t), t_gate(t), cx(c2, t),
            tdg(t), cx(c1, t), t_gate(c2), t_gate(t), h(t),
            cx(c1, c2), t_gate(c1), tdg(c2), cx(c1, c2))


def _multi_controlled_x(controls: tuple[int, ...], target: int) -> tuple[Gate, ...]:
    if len(controls) == 1:
        return (cx(controls[0], target),)
    if len(controls) == 2:
        return _textbook_ccx(controls[0], controls[1], target)
    return (h(target),) + controlled_phase(PI, controls + (target,)) + (h(target),)


def naive_synth(kind: str, n: int) -> Circuit:
    """Build a named operator the textbook way, on the template's wires."""
    kind = kind.lower()
    op = operator(kind, n)
    controls, target = template_wires(n)
    circuit = Circuit(n, _build(kind, op, controls, target))
    if not phases_match(unitary_columns(circuit), op.target(n), n, per_column=False, tol=1e-10):
        raise SynthVerificationError(f"naive {kind}({n}) does not match its target unitary")
    return circuit


def _build(kind: str, op: Operator, controls: tuple[int, ...], target: int) -> tuple[Gate, ...]:
    if op.inverted is not None:
        # X-dress the inverted controls around a true multi-controlled X,
        # plus a target X when the function is complemented.
        dressed = tuple(x(w) for w in controls[op.inverted])
        gates = dressed + _multi_controlled_x(controls, target) + dressed
        return gates + (x(target),) if op.complemented else gates
    if kind in ("cv", "cvdg"):
        phase = Angle(1, 2) if kind == "cv" else Angle(-1, 2)
        return (h(target),) + controlled_phase(phase, controls + (target,)) + (h(target),)
    if kind == "fredkin":
        high = target + 1
        inner = _multi_controlled_x(tuple(w for w in controls if w != high) + (high,), target)
        bridge = cx(target, high)
        return (bridge,) + inner + (bridge,)
    return (_multi_controlled_x((1, 2), 0) + _multi_controlled_x((0, 2), 1)
            + _multi_controlled_x((0, 1), 2))

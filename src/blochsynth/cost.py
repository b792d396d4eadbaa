"""
Depth, weighted transpilation cost, and the end-to-end costing pipeline.

The pipeline fixes one auditable accounting order: lower to the native
basis, canonicalize, count N1/N2, place and route (XC = inserted SWAPs,
excluded from N2), then take D as the depth of the routed circuit lowered and
canonicalized again, so D includes the routing overhead while N2 does not
double-count it.  Both lowerings are transpile's one walk, which lowers each
distinct SWAP once; D is read off its gate list without building a circuit.
A route without SWAPs only relabels the native circuit, so its D is the
native depth.  WTQC = W1*N1 + W2*N2 + W3*XC + W4*D, exactly.
"""
from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from .ir import Circuit, Gate
from .layout import Layout, Mapping, find_placement, route
from .transpile import DEFAULT_BASIS, NativeBasis, _lower, count_gates
# perfbench/tracing.py wraps these two names here, so they stay importable.
from .transpile import canonicalize, rewrite_to_basis  # noqa: F401

UNIT_WEIGHTS = (1.0, 1.0, 1.0, 1.0)

# Published per-operator (N1, N2, XC, D) reference rows for the benchmark
# operators; N1/D depend on the producing transpiler's canonicalization, so
# only XC (and N2 for cv n=2) are treated as exact — see report_deviations.
REFERENCE_COSTS: dict[tuple[str, int], tuple[int, int, int, int]] = {
    ("cv", 2): (6, 1, 0, 7),
    ("cv", 4): (53, 7, 0, 42),
    ("and", 3): (34, 3, 0, 29),
    ("and", 4): (52, 7, 0, 41),
    ("and", 5): (81, 9, 0, 74),
    ("nand", 4): (52, 7, 0, 41),
    ("or", 4): (52, 7, 0, 41),
    ("or", 5): (92, 9, 0, 76),
    ("nor", 4): (52, 7, 0, 41),
    ("implication", 3): (28, 3, 0, 21),
    ("inhibition", 3): (28, 3, 0, 21),
    ("fredkin", 3): (35, 5, 0, 22),
    ("fredkin", 4): (56, 9, 0, 46),
    ("miller", 4): (70, 13, 0, 58),
}


def depth(c: Circuit | Sequence[Gate]) -> int:
    """Longest dependency chain of a circuit or gate list; each gate is one step on its wires."""
    frontier: dict[int, int] = defaultdict(int)   # only the wires met: large ids stay cheap
    for g in (c.gates if isinstance(c, Circuit) else c):
        if len(g.qubits) == 1:
            frontier[g.qubits[0]] += 1
        else:
            a, b = g.qubits
            frontier[a] = frontier[b] = 1 + max(frontier[a], frontier[b])
    return max(frontier.values(), default=0)


def wtqc(counts: tuple[int, int, int, int],
         weights: tuple[float, float, float, float] = UNIT_WEIGHTS) -> float:
    """The weighted sum W1*N1 + W2*N2 + W3*XC + W4*D."""
    if len(counts) != 4 or len(weights) != 4:
        raise ValueError("need exactly four counts and four weights")
    return float(sum(w * x for w, x in zip(check_weights(weights), counts)))


def check_weights(weights: tuple[float, ...]) -> tuple[float, ...]:
    """Return the weights unchanged after checking each is finite and non-negative."""
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError("weights must be finite and non-negative")
    return weights


@dataclass(frozen=True)
class CostReport:
    n1: int
    n2: int
    xc: int
    d: int
    weights: tuple[float, float, float, float] = UNIT_WEIGHTS
    mapping: Mapping | None = None

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.n1, self.n2, self.xc, self.d)

    @property
    def wtqc(self) -> float:
        return wtqc(self.counts, self.weights)


def cost_pipeline(c: Circuit, layout: Layout | None = None,
                  mapping: Mapping | None = None,
                  weights: tuple[float, float, float, float] = UNIT_WEIGHTS,
                  xc_mode: str = "swaps",
                  basis: NativeBasis = DEFAULT_BASIS) -> CostReport:
    """Lower, count, place, route, and measure one circuit."""
    if xc_mode not in ("swaps", "cnots"):
        raise ValueError(f"xc_mode must be 'swaps' or 'cnots', got {xc_mode!r}")
    native = Circuit(c.n_qubits, _lower(c.gates, basis))
    n1, n2 = count_gates(native, basis)
    if layout is None:
        return CostReport(n1, n2, 0, depth(native), weights, mapping)
    if mapping is None:
        mapping = find_placement(layout, native)
    routed, swaps = route(native, layout, mapping)
    d = depth(_lower(routed.gates, basis)) if swaps else depth(native)
    xc = 3 * swaps if xc_mode == "cnots" else swaps
    return CostReport(n1, n2, xc, d, weights, mapping)


def report_deviations(kind: str, n: int, report: CostReport) -> tuple[str, ...]:
    """Compare a report against its reference row, naming each differing field."""
    reference = REFERENCE_COSTS.get((kind, n))
    if reference is None:
        return ()
    return tuple(f"{name}: ours={ours} reference={ref}"
                 for name, ours, ref in zip(("n1", "n2", "xc", "d"),
                                            report.counts, reference)
                 if ours != ref)

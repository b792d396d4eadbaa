"""
blochsynth: layout-aware Clifford+T synthesis of multi-control Boolean and
phase gates on symmetric CNOT templates, with equator phase tracking,
native-basis lowering, heavy-hex placement, and weighted transpilation cost.
"""
from .angles import Angle, PI, PI_2, PI_4, ZERO
from .baselines import controlled_phase, naive_synth
from .cost import (REFERENCE_COSTS, CostReport, cost_pipeline, depth,
                   report_deviations, wtqc)
from .ir import (DIAGONAL_PHASES, Circuit, Gate, GateKind, cx, cz,
                 diagonal_gate, h, i, rx, rz, s, sdg, swap, sx, sxdg, t, tdg,
                 x, y, z)
from .layout import (Layout, LayoutParseError, Mapping, emit_layout,
                     find_chain, find_placement, heavy_hex, load_layout,
                     make_layout, parse_layout, route)
from .simulator import (SignedPauli, StateVector, TruthTable, boolean_action,
                        clifford_conjugate, equiv_up_to_global_phase,
                        equiv_up_to_relative_phase,
                        gate_matrix, permutation_unitary, reference_unitary,
                        template_wires, unitary_of)
from .synthesis import (Ax2, BooleanSpec, SynthResult, SynthVerificationError,
                        ThetaAssignment, UnsatisfiableError, fredkin_permutation,
                        miller_permutation, narrow_gate_set,
                        solve_phase_system, solve_thetas, synth,
                        synth_detailed, synth_table, theta_system_holds)
from .templates import (Slot, SlotKind, Template, cnot_schedule, instantiate,
                        make_template, slot_masks)
from .textio import CircuitParseError, emit_circuit, parse_circuit
from .tracker import (PhasePoint, Trace, TraceEvent, TrackError,
                      render_trace_table, trace)
from .transpile import (DEFAULT_BASIS, NativeBasis, canonicalize, count_gates,
                        load_basis, parse_basis, rewrite_to_basis)

__version__ = "0.1.0"

__all__ = [
    "Angle", "PI", "PI_2", "PI_4", "ZERO",
    "GateKind", "Gate", "Circuit", "DIAGONAL_PHASES",
    "i", "x", "sx", "sxdg", "y", "z", "h", "s", "sdg", "t", "tdg",
    "rz", "rx", "cx", "cz", "swap", "diagonal_gate",
    "CircuitParseError", "parse_circuit", "emit_circuit",
    "StateVector", "SignedPauli", "TruthTable", "gate_matrix", "unitary_of",
    "boolean_action", "clifford_conjugate", "equiv_up_to_global_phase",
    "equiv_up_to_relative_phase",
    "permutation_unitary", "reference_unitary", "template_wires",
    "SlotKind", "Slot", "Template", "cnot_schedule", "make_template",
    "slot_masks", "instantiate",
    "TrackError", "PhasePoint", "TraceEvent", "Trace", "trace",
    "render_trace_table",
    "Ax2", "BooleanSpec", "ThetaAssignment", "SynthResult",
    "UnsatisfiableError", "SynthVerificationError", "narrow_gate_set",
    "solve_phase_system", "solve_thetas", "theta_system_holds",
    "synth", "synth_detailed", "synth_table",
    "fredkin_permutation", "miller_permutation",
    "NativeBasis", "DEFAULT_BASIS", "rewrite_to_basis", "canonicalize",
    "count_gates", "parse_basis", "load_basis",
    "Layout", "LayoutParseError", "Mapping", "make_layout", "parse_layout",
    "load_layout", "emit_layout", "heavy_hex", "find_chain", "find_placement",
    "route",
    "CostReport", "REFERENCE_COSTS", "depth", "wtqc", "cost_pipeline",
    "report_deviations",
    "controlled_phase", "naive_synth",
    "__version__",
]

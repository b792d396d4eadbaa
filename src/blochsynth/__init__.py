"""
blochsynth: layout-aware Clifford+T synthesis of multi-control Boolean and
phase gates on symmetric CNOT templates, with equator phase tracking,
native-basis lowering, heavy-hex placement, and weighted transpilation cost.

Importing the package loads no submodule: each public name below, and each
submodule, is imported the first time it is read (PEP 562).
"""
from importlib import import_module

__version__ = "0.1.0"

# Public names by the submodule that defines them, in __all__ order.
_EXPORTS = {
    "angles": "Angle PI PI_2 PI_4 ZERO",
    "ir": "GateKind Gate Circuit DIAGONAL_PHASES i x sx sxdg y z h s sdg t tdg "
          "rz rx cx cz swap diagonal_gate",
    "textio": "CircuitParseError parse_circuit emit_circuit",
    "simulator": "StateVector SignedPauli TruthTable gate_matrix unitary_of "
                 "boolean_action clifford_conjugate equiv_up_to_global_phase "
                 "equiv_up_to_relative_phase permutation_unitary reference_unitary "
                 "template_wires",
    "templates": "Template cnot_schedule make_template slot_masks instantiate",
    "tracker": "TrackError PhasePoint TraceEvent Trace trace render_trace_table",
    "synthesis": "Ax2 BooleanSpec ThetaAssignment SynthResult UnsatisfiableError "
                 "SynthVerificationError narrow_gate_set solve_phase_system solve_thetas "
                 "theta_system_holds synth synth_detailed synth_table "
                 "fredkin_permutation miller_permutation",
    "transpile": "NativeBasis DEFAULT_BASIS rewrite_to_basis canonicalize count_gates "
                 "parse_basis load_basis",
    "layout": "Layout LayoutParseError Mapping make_layout parse_layout load_layout "
              "emit_layout heavy_hex find_chain find_placement route",
    "cost": "CostReport REFERENCE_COSTS depth wtqc cost_pipeline report_deviations",
    "baselines": "controlled_phase naive_synth",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)

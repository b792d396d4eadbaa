"""The record contract: every record class is an immutable value."""
import copy
import pickle

import pytest

from blochsynth.angles import PI, PI_4, Angle, Record
from blochsynth.cost import CostReport
from blochsynth.ir import Circuit, GateKind, cx, h, rz
from blochsynth.layout import Mapping, make_layout
from blochsynth.simulator import SignedPauli, StateVector, TruthTable
from blochsynth.synthesis import (Ax2, BooleanSpec, Operator, ThetaAssignment,
                                  fredkin_permutation, synth, synth_detailed)
from blochsynth.templates import make_template
from blochsynth.tracker import PhasePoint, TraceEvent, trace
from blochsynth.transpile import NativeBasis

# Each builds a fresh record with the same field values on every call.
RECORDS = {
    "Angle": lambda: Angle(3, 8),
    "Gate": lambda: rz(PI_4, 2),
    "Circuit": lambda: Circuit(2, (h(0), cx(0, 1))),
    "Layout": lambda: make_layout("path3", [(0, 1), (1, 2)]),
    "Mapping": lambda: Mapping((2, 0, 1)),
    "CostReport": lambda: CostReport(1, 2, 3, 4, (1.0, 2.0, 1.0, 1.0), Mapping((0, 1))),
    "StateVector": lambda: StateVector(1, [0.6, 0.8j]),
    "SignedPauli": lambda: SignedPauli(-1, GateKind.Y),
    "TruthTable": lambda: TruthTable(1, (False, True)),
    "BooleanSpec": lambda: BooleanSpec(2, (False, False, False, True)),
    "ThetaAssignment": lambda: ThetaAssignment((PI_4, -PI_4), Ax2.Z),
    "SynthResult": lambda: synth_detailed("and", 3),
    # Module functions: they pickle by name, where a partial or lambda would not.
    "Operator": lambda: Operator((3, 4), synth_detailed, fredkin_permutation),
    "Template": lambda: make_template(4),
    "PhasePoint": lambda: PhasePoint(PI_4),
    "TraceEvent": lambda: TraceEvent("CNOT(c1)", PhasePoint(PI), True),
    "Trace": lambda: trace(synth("and", 3), 3),
    "NativeBasis": lambda: NativeBasis("b", frozenset({GateKind.RZ}), frozenset({GateKind.CZ})),
}


def test_every_record_class_is_covered():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_compare_and_hash_equal(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and repr(a) == repr(b)
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != tuple(getattr(a, f) for f in a._fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    a = RECORDS[name]()
    for field in a._fields:
        value = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, "other")
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_copy_round_trip(name):
    a = RECORDS[name]()
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(b) is type(a) and b == a


def test_state_vectors_compare_and_hash_by_amplitude_value():
    a = StateVector(1, [0.6, 0.8j])
    assert a == StateVector(1, (0.6, 0.8j)) and {a, StateVector(1, [0.6, 0.8j])} == {a}
    assert a != StateVector(1, [0.8j, 0.6]) and a != StateVector(2, [0.6, 0.8j, 0, 0])
    assert repr(a).startswith("StateVector(n_qubits=1, amplitudes=array([")


def test_repr_names_each_field():
    assert repr(Angle(3, 8)) == "Angle(num=3, den=8)"
    assert repr(h(0)) == "Gate(kind=<GateKind.H: 'h'>, qubits=(0,), angle=None)"
    assert repr(make_template(2)) == \
        "Template(n_qubits=2, control_wires=(0,), target_wire=1, schedule=(1,))"

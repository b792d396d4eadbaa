"""Depth, WTQC, the costing pipeline, and reference-row comparisons."""
from importlib import resources

import numpy as np
import pytest

from blochsynth.cost import (REFERENCE_COSTS, UNIT_WEIGHTS, CostReport,
                             cost_pipeline, depth, report_deviations, wtqc)
from blochsynth.ir import Circuit, cx, cz, h
from blochsynth.layout import (Mapping, heavy_hex, make_layout, parse_layout)
from blochsynth.synthesis import OPERATOR_RANGES, synth

from conftest import random_circuit

TORINO = heavy_hex(6, 3)
STAR5 = make_layout("star5", [(0, 1), (0, 2), (0, 3), (0, 4)])

# Frozen pipeline results under unit weights: torino for n <= 4, the star
# for n = 5 (no heavy-hex vertex has the degree a 5-wire template needs).
PIPELINE_GOLDENS = {
    ("cv", 2): (10, 1, 0, 11),
    ("cv", 4): (40, 7, 0, 47),
    ("and", 3): (20, 3, 0, 23),
    ("and", 4): (40, 7, 0, 47),
    ("and", 5): (80, 15, 0, 95),
    ("nand", 4): (40, 7, 0, 47),
    ("or", 4): (40, 7, 0, 47),
    ("or", 5): (80, 15, 0, 95),
    ("nor", 4): (40, 7, 0, 47),
    ("implication", 3): (20, 3, 0, 23),
    ("inhibition", 3): (20, 3, 0, 23),
    ("fredkin", 3): (32, 5, 0, 31),
    ("fredkin", 4): (52, 9, 0, 55),
    ("miller", 4): (84, 13, 0, 79),
}


def test_depth_goldens():
    assert depth(Circuit(2, ())) == 0
    assert depth(Circuit(2, (h(0), h(1)))) == 1
    assert depth(Circuit(2, (h(0), h(0)))) == 2
    assert depth(Circuit(2, (h(0), cz(0, 1), h(1)))) == 3
    assert depth(Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 1)))) == 3


def test_depth_against_precedence_dag():
    # independent oracle: longest chain of wire-sharing gates by index DP
    rng = np.random.default_rng(23)
    for _ in range(30):
        c = random_circuit(rng, 4, 20)
        longest = [0] * len(c.gates)
        for j, g in enumerate(c.gates):
            prior = [longest[i] for i in range(j)
                     if set(c.gates[i].qubits) & set(g.qubits)]
            longest[j] = 1 + max(prior, default=0)
        assert depth(c) == max(longest, default=0)


def test_wtqc_goldens():
    assert wtqc((6, 1, 0, 7)) == 14.0
    assert wtqc((34, 3, 0, 29)) == 66.0
    assert wtqc((1, 2, 3, 4), (2.0, 0.5, 1.0, 0.25)) == 7.0


def test_wtqc_validation():
    with pytest.raises(ValueError, match="four"):
        wtqc((1, 2, 3))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            wtqc((1, 2, 3, 4), (1.0, bad, 1.0, 1.0))


def test_cost_report_properties():
    report = CostReport(6, 1, 0, 7)
    assert report.counts == (6, 1, 0, 7)
    assert report.wtqc == 14.0
    assert report.weights == UNIT_WEIGHTS


def test_pipeline_without_a_layout():
    report = cost_pipeline(synth("cv", 2))
    assert report.counts == (10, 1, 0, 11)
    assert report.mapping is None


@pytest.mark.parametrize("key", sorted(PIPELINE_GOLDENS))
def test_pipeline_goldens(key):
    kind, n = key
    layout = STAR5 if n == 5 else TORINO
    report = cost_pipeline(synth(kind, n), layout)
    assert report.counts == PIPELINE_GOLDENS[key]
    assert report.xc == 0
    assert report.wtqc == float(sum(PIPELINE_GOLDENS[key]))


def test_pipeline_star_placement_mapping():
    report = cost_pipeline(synth("and", 4), TORINO)
    assert report.mapping.physical == (3, 5, 4, 16)


def test_pipeline_explicit_mapping_and_cnot_mode():
    # a deliberately bad mapping forces one SWAP; cnots mode triples it
    c = Circuit(2, (h(1), cz(0, 1), h(1)))
    lay = make_layout("path4", [(0, 1), (1, 2), (2, 3)])
    spread = Mapping((0, 2))
    swaps = cost_pipeline(c, lay, mapping=spread)
    cnots = cost_pipeline(c, lay, mapping=spread, xc_mode="cnots")
    assert swaps.xc == 1 and cnots.xc == 3
    assert swaps.counts[:2] == cnots.counts[:2]
    assert swaps.d > depth(Circuit(2, (h(1), cz(0, 1), h(1))))


def test_pipeline_rejects_bad_xc_mode():
    with pytest.raises(ValueError, match="xc_mode"):
        cost_pipeline(Circuit(1, ()), xc_mode="edges")


def test_weights_flow_into_the_report():
    weights = (1.0, 10.0, 5.0, 0.0)
    report = cost_pipeline(synth("and", 3), TORINO, weights=weights)
    assert report.weights == weights
    assert report.wtqc == 20 + 10.0 * 3


def test_reference_rows_cover_the_benchmark():
    assert len(REFERENCE_COSTS) == 14
    assert all(ref[2] == 0 for ref in REFERENCE_COSTS.values())
    assert REFERENCE_COSTS[("cv", 2)] == (6, 1, 0, 7)
    assert all(n in OPERATOR_RANGES[kind] for kind, n in REFERENCE_COSTS)


def test_report_deviations():
    report = cost_pipeline(synth("and", 3), TORINO)
    notes = report_deviations("and", 3, report)
    assert notes == ("n1: ours=20 reference=34", "d: ours=23 reference=29")
    assert report_deviations("and", 2, report) == ()
    cv = cost_pipeline(synth("cv", 2), TORINO)
    cv_notes = report_deviations("cv", 2, cv)
    assert "n2" not in " ".join(cv_notes)   # N2 = 1 matches exactly
    assert "xc" not in " ".join(cv_notes)   # XC = 0 matches exactly


def test_bundled_star_matches_the_local_one():
    data = resources.files("blochsynth") / "data"
    star = parse_layout((data / "star5.layout").read_text(), "star5")
    assert star.edges == STAR5.edges

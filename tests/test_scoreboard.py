"""The paper's cost claim as a pinned scoreboard: design vs. textbook WTQC.

For every registered (operator, n), bare and on ibm_torino, the design
(`synth`) and the textbook circuit (`naive_synth`) are costed by
`cost_pipeline` under unit weights, as `compare` costs them.  Both numbers
are pinned, and so is the set of rows the design does not win: a change to
lowering, routing or either construction shows up here as a diff.
"""
from blochsynth.baselines import naive_synth
from blochsynth.cli import parse_bundled
from blochsynth.cost import cost_pipeline
from blochsynth.synthesis import OPERATOR_RANGES, synth

TORINO = parse_bundled("ibm_torino")

# (operator, n) -> ((design, textbook) bare, (design, textbook) on ibm_torino)
SCOREBOARD = {
    ("toffoli", 2): ((22, 14), (22, 14)),
    ("toffoli", 3): ((46, 77), (46, 97)),
    ("toffoli", 4): ((94, 390), (94, 698)),
    ("toffoli", 5): ((190, 1080), (350, 2056)),
    ("and", 2): ((22, 14), (22, 14)),
    ("and", 3): ((46, 77), (46, 97)),
    ("and", 4): ((94, 390), (94, 698)),
    ("and", 5): ((190, 1080), (350, 2056)),
    ("nand", 2): ((22, 16), (22, 16)),
    ("nand", 3): ((46, 78), (46, 98)),
    ("nand", 4): ((94, 391), (94, 699)),
    ("nand", 5): ((190, 1081), (350, 2057)),
    ("or", 2): ((22, 18), (22, 18)),
    ("or", 3): ((46, 83), (46, 103)),
    ("or", 4): ((94, 399), (94, 707)),
    ("or", 5): ((190, 1091), (350, 2067)),
    ("nor", 2): ((22, 16), (22, 16)),
    ("nor", 3): ((46, 82), (46, 102)),
    ("nor", 4): ((94, 398), (94, 706)),
    ("nor", 5): ((190, 1090), (350, 2066)),
    ("implication", 3): ((46, 81), (46, 101)),
    ("inhibition", 3): ((46, 80), (46, 100)),
    ("cv", 2): ((22, 35), (22, 35)),
    ("cv", 4): ((94, 390), (94, 698)),
    ("cvdg", 2): ((22, 35), (22, 35)),
    ("cvdg", 4): ((94, 390), (94, 698)),
    ("fredkin", 3): ((68, 100), (68, 131)),
    ("fredkin", 4): ((116, 408), (116, 736)),
    ("miller", 3): ((176, 226), (176, 321)),
    ("miller", 4): ((176, 226), (176, 321)),
}

# The rows where the design does not win today: every Boolean gate at n=2,
# where one textbook CX (or a dressed one) is cheaper than the template.
NOT_WON = {(kind, 2, where) for kind in ("toffoli", "and", "nand", "or", "nor")
           for where in ("bare", "ibm_torino")}


def _measured():
    rows = {}
    for kind, sizes in OPERATOR_RANGES.items():
        for n in sizes:
            design, textbook = synth(kind, n), naive_synth(kind, n)
            rows[(kind, n)] = tuple(
                (int(cost_pipeline(design, layout).wtqc),
                 int(cost_pipeline(textbook, layout).wtqc))
                for layout in (None, TORINO))
    return rows


def test_scoreboard_of_design_against_textbook():
    rows = _measured()
    assert rows == SCOREBOARD
    not_won = {(kind, n, where): pair
               for (kind, n), pairs in rows.items()
               for where, pair in zip(("bare", "ibm_torino"), pairs)
               if pair[0] >= pair[1]}
    print("\nrows the design does not win (design WTQC vs textbook WTQC):")
    for (kind, n, where), (design, textbook) in sorted(not_won.items()):
        print(f"  {kind} n={n} {where}: {design} vs {textbook}")
    assert set(not_won) == NOT_WON

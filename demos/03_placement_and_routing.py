"""
Placing templates on a heavy-hex lattice and routing the leftovers
==================================================================

Heavy-hex devices never exceed degree 3, yet every template up to 4
qubits places with zero SWAPs.  find_placement embeds the circuit's
interaction pairs: a template interacts only through its target, so its
pairs form a star, which a degree-3 hub hosts up to 4 qubits.  When no
embedding exists, it falls back to a chain, and route() inserts SWAPs
greedily and reports the honest count.
"""

from blochsynth import Mapping, find_placement, heavy_hex, route, synth
from blochsynth.ir import Circuit, cz
from blochsynth.transpile import canonicalize, rewrite_to_basis

# The 129-qubit lattice: 7 lines of 15 qubits joined by 4-qubit bridge
# rows.  Degree never exceeds 3.
lattice = heavy_hex(6, 3)
print(f"{lattice.name}: {len(lattice.qubits)} qubits, {len(lattice.edges)} edges")
print("max degree:", max(lattice.degree(q) for q in lattice.qubits))

# A 3-qubit template is a star with two spokes (c1 - target - c2); the
# search puts wire 0 on the lowest id that has a neighbour of degree 2.
and3 = canonicalize(rewrite_to_basis(synth("and", 3)))
print("\nAND-3 placement:", find_placement(lattice, and3).physical)

# The 4-qubit template needs three neighbors for its target.  Wire 0
# goes to 3, the lowest id next to a degree-3 vertex (4), which takes the
# hub; the other spokes follow in ascending order.
and4 = canonicalize(rewrite_to_basis(synth("and", 4)))
mapping4 = find_placement(lattice, and4)
print("AND-4 placement:", mapping4.physical, "(wire 2 is the hub)")

routed, xc = route(and4, lattice, mapping4)
print("AND-4 SWAPs after placement:", xc)

# Force a bad mapping and routing pays the distance honestly: physical
# 0 and 3 sit three edges apart on the first line, so one CZ costs two
# SWAPs.
spread = Mapping((0, 3))
routed, xc = route(Circuit(2, (cz(0, 1),)), lattice, spread)
print("\nCZ between physical 0 and 3:", xc, "SWAPs")
print("routed gates:", [(g.kind.value, g.qubits) for g in routed.gates])

# A 5-qubit template wants a degree-4 hub, which heavy-hex cannot offer,
# so the search stops at once; the chain fallback still works, and
# routing pays instead.
and5 = canonicalize(rewrite_to_basis(synth("and", 5)))
mapping5 = find_placement(lattice, and5)
_, xc5 = route(and5, lattice, mapping5)
print(f"\nAND-5 on heavy-hex: chain fallback {mapping5.physical}, {xc5} SWAPs")
print("(the bundled star5 layout places it with zero SWAPs instead)")

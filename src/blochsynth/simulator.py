"""
Exact state/unitary simulation for small circuits (verification oracle).

Conventions, fixed once and used everywhere:
    - Qubit 0 is the least significant bit of the state index.
    - unitary_of applies gates left to right: unitary_of(a + b) = U_b . U_a.
    - RZ(theta) = diag(e^{-i theta/2}, e^{+i theta/2}), so RZ(pi) = -i Z.
    - Named Z, S, T are diag(1, e^{i theta}): equal to RZ only up to global phase.

One pure-Python kernel, `evolve`, serves every simulation.  It advances sparse
columns: one dict from `row | column << n` to amplitude, holding nonzero
entries only, with every column moved through each gate at once.  X, Y, CX
and SWAP relabel keys and diagonal gates scale amplitudes; a run of such
gates is applied in one pass, walked once per distinct row.  Any other
one-qubit gate mixes the index pairs that differ in its qubit and drops
amplitudes below 1e-15.  The cost grows with the number of nonzero
amplitudes: a template column holds at most two, so checking a design is
cheap, while a dense 10-qubit unitary (2^20 amplitudes) is slower than with
a matrix kernel.

The checks the pipeline runs (`boolean_action`, and `phases_match` against
`reference_columns` or `permutation_columns`) need no numpy.  The dense
helpers (`unitary_of`, `apply`/`StateVector`, `gate_matrix`, the `equiv_*`
predicates, `clifford_conjugate`, `reference_unitary` and
`permutation_unitary`) import numpy on first use.

Equivalence helpers come in three strengths: exact, up to one global phase,
and up to one phase per column (the "relative phase" freedom that the
symmetric templates exploit for Fredkin/Miller/CV constructions).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import cos, pi, sin, sqrt
from typing import TYPE_CHECKING

from .ir import Circuit, Gate, GateKind

if TYPE_CHECKING:
    import numpy as np

MAX_SIM_QUBITS = 10

# Sparse columns of an n-qubit operator: row | column << n -> amplitude,
# zero amplitudes left out.
Columns = dict[int, complex]

_DROP = 1e-15   # a mixing gate drops amplitudes smaller than this

_S2 = 1 / sqrt(2)
_T = cmath.exp(1j * pi / 4)
# Row-major entries (m00, m01, m10, m11) of each fixed one-qubit gate.
_ENTRIES_1Q = {
    GateKind.I: (1, 0, 0, 1),
    GateKind.X: (0, 1, 1, 0),
    GateKind.Y: (0, -1j, 1j, 0),
    GateKind.Z: (1, 0, 0, -1),
    GateKind.H: (_S2, _S2, _S2, -_S2),
    GateKind.S: (1, 0, 0, 1j),
    GateKind.SDG: (1, 0, 0, -1j),
    GateKind.T: (1, 0, 0, _T),
    GateKind.TDG: (1, 0, 0, _T.conjugate()),
    GateKind.SX: ((1 + 1j) / 2, (1 - 1j) / 2, (1 - 1j) / 2, (1 + 1j) / 2),
    GateKind.SXDG: ((1 - 1j) / 2, (1 + 1j) / 2, (1 + 1j) / 2, (1 - 1j) / 2),
}


def _entries(g: Gate) -> tuple[complex, complex, complex, complex]:
    """A one-qubit gate's matrix as its row-major entries (m00, m01, m10, m11)."""
    if g.kind in _ENTRIES_1Q:
        return _ENTRIES_1Q[g.kind]
    if not g.kind.takes_angle:
        raise ValueError(f"no dense matrix for {g.kind.value}")
    half = float(g.angle) / 2
    if g.kind is GateKind.RZ:
        return (cmath.exp(-1j * half), 0, 0, cmath.exp(1j * half))
    on, off = cos(half), -1j * sin(half)   # RX
    return (on, off, off, on)


def gate_matrix(g: Gate) -> np.ndarray:
    """The 2x2 unitary of a one-qubit gate."""
    import numpy as np
    return np.array(_entries(g), dtype=complex).reshape(2, 2)


@lru_cache(maxsize=4096)
def _steps(g: Gate) -> tuple[complex | None, tuple]:
    """How the kernel applies g: (factor, row steps), or (None, mixing entries).

    A gate that maps each basis row to one row, times a phase, becomes a
    factor common to all rows and steps (is_phase, mask, value): where
    row & mask == mask, multiply by value, or xor value into the row.
    Any other one-qubit gate gives (None, (bit, m00, m01, m10, m11)).
    """
    kind = g.kind
    if kind.n_qubits == 2:
        a, b = (1 << q for q in g.qubits)
        if kind is GateKind.CX:
            return 1, ((False, a, b),)
        if kind is GateKind.CZ:
            return 1, ((True, a | b, -1),)
        return 1, ((False, a, b), (False, b, a), (False, a, b))    # SWAP as three CX
    bit = 1 << g.qubits[0]
    m00, m01, m10, m11 = _entries(g)
    if not (m01 or m10):        # diagonal: m00 everywhere, m11 / m00 where the bit is set
        return m00, ((True, bit, m11 / m00),) if m11 != m00 else ()
    if not (m00 or m11):        # X, Y: m10 everywhere, m01 / m10 where the bit was set
        return m10, ((True, bit, m01 / m10),) * (m01 != m10) + ((False, 0, bit),)
    return None, (bit, m00, m01, m10, m11)


def _apply_run(state: Columns, factor: complex, steps: list, mask: int) -> Columns:
    """Apply a run of row-to-row gates, walking it once per distinct row."""
    if not steps:
        return state if factor == 1 else {k: v * factor for k, v in state.items()}
    dest, phase = {}, {}
    for start in {k & mask for k in state}:
        row, ph = start, factor
        for is_phase, m, value in steps:
            if row & m == m:
                if is_phase:
                    ph *= value
                else:
                    row ^= value
        dest[start], phase[start] = row, ph
    return {dest[(r := k & mask)] | k ^ r: v * phase[r] for k, v in state.items()}


def _mix(state: Columns, bit: int, m00: complex, m01: complex, m10: complex,
         m11: complex) -> Columns:
    """Apply a one-qubit gate to each pair of rows that differ in `bit`, once."""
    out = {}
    for k, v in state.items():
        if k & bit:
            k0, k1 = k ^ bit, k
            if k0 in state:
                continue    # mixed when k0 came up
            a0, a1 = 0, v
        else:
            k0, k1 = k, k | bit
            a0, a1 = v, state.get(k1, 0)
        b0, b1 = m00 * a0 + m01 * a1, m10 * a0 + m11 * a1
        if abs(b0) > _DROP:
            out[k0] = b0
        if abs(b1) > _DROP:
            out[k1] = b1
    return out


def evolve(c: Circuit, state: Columns) -> Columns:
    """Apply every gate of c, in order, to the sparse columns `state`; returns new columns.

    Each maximal run of gates that map rows to rows (X, Y, CX, SWAP and the
    diagonal gates) is applied in one pass over the state.
    """
    mask = (1 << c.n_qubits) - 1
    factor, steps = 1, []
    for g in c.gates:
        g_factor, g_steps = _steps(g)
        if g_factor is None:
            state = _mix(_apply_run(state, factor, steps, mask), *g_steps)
            factor, steps = 1, []
        else:
            factor *= g_factor
            steps += g_steps
    return _apply_run(state, factor, steps, mask)


def unitary_columns(c: Circuit) -> Columns:
    """The circuit's unitary as sparse columns (gates applied left to right)."""
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"unitary_of supports at most {MAX_SIM_QUBITS} qubits")
    n = c.n_qubits
    return evolve(c, {k | k << n: 1.0 for k in range(2 ** n)})


def _dense(columns: Columns, n_qubits: int, n_rows: int, n_columns: int) -> np.ndarray:
    """Sparse columns as an (n_rows, n_columns) complex array."""
    import numpy as np
    keys = np.fromiter(columns, dtype=np.int64, count=len(columns))
    u = np.zeros((n_rows, n_columns), dtype=complex)
    u[keys & ((1 << n_qubits) - 1), keys >> n_qubits] = np.fromiter(
        columns.values(), dtype=complex, count=len(columns))
    return u


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        import numpy as np
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2 ** self.n_qubits:
            raise ValueError(f"need {2 ** self.n_qubits} amplitudes, got {amps.shape[0]}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        import numpy as np
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        import numpy as np
        return float(np.linalg.norm(self.amplitudes))


def apply(c: Circuit, state: StateVector) -> StateVector:
    """Apply every gate of c in order to the state."""
    if c.n_qubits != state.n_qubits:
        raise ValueError(f"circuit on {c.n_qubits} qubits, state on {state.n_qubits}")
    start = {k: v for k, v in enumerate(state.amplitudes.tolist()) if v}
    dim = 2 ** c.n_qubits
    return StateVector(c.n_qubits, _dense(evolve(c, start), c.n_qubits, dim, 1))


def unitary_of(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit (gates applied left to right)."""
    dim = 2 ** c.n_qubits
    return _dense(unitary_columns(c), c.n_qubits, dim, dim)


def phases_match(got: Columns, want: Columns, n_qubits: int, per_column: bool,
                 tol: float) -> bool:
    """True iff got = want . diag(lambdas) with every |lambda| = 1.

    With per_column there is one lambda per column, otherwise one for all
    (a global phase).  As in the dense `equiv_up_to_*` predicates, each
    lambda is read off want's largest entry (the first in row-major order on
    ties), and every entry of got - lambda * want must be within tol; where
    want's largest entry is within tol, got must be too.
    """
    mask = (1 << n_qubits) - 1

    def group(key: int) -> int:
        return key >> n_qubits if per_column else 0

    ref: dict[int, int] = {}
    for key in sorted(want, key=lambda k: (k & mask, k >> n_qubits)):
        g = group(key)
        if g not in ref or abs(want[key]) > abs(want[ref[g]]):
            ref[g] = key
    lams = {}
    for g, key in ref.items():
        if abs(want[key]) > tol:
            lam = got.get(key, 0) / want[key]
            if abs(abs(lam) - 1.0) > tol:
                return False
            lams[g] = lam
    return all(abs(got.get(k, 0) - lams.get(group(k), 0) * want.get(k, 0)) <= tol
               for k in got.keys() | want.keys())


def equiv_exact(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    import numpy as np
    return u.shape == v.shape and bool(np.max(np.abs(u - v)) <= tol)


def equiv_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff u = lambda * v for one unit-modulus lambda (within tol elementwise)."""
    import numpy as np
    if u.shape != v.shape:
        return False
    flat = np.abs(v).reshape(-1)
    idx = int(np.argmax(flat))          # row-major first on ties
    if flat[idx] <= tol:
        return bool(np.max(np.abs(u)) <= tol)
    lam = u.reshape(-1)[idx] / v.reshape(-1)[idx]
    if abs(abs(lam) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(u - lam * v)) <= tol)


def equiv_up_to_relative_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff u = v . diag(lambdas) with all |lambda_k| = 1 (one phase per column)."""
    import numpy as np
    if u.shape != v.shape:
        return False
    for k in range(u.shape[1]):
        col_v, col_u = v[:, k], u[:, k]
        idx = int(np.argmax(np.abs(col_v)))
        if abs(col_v[idx]) <= tol:
            if np.max(np.abs(col_u)) > tol:
                return False
            continue
        lam = col_u[idx] / col_v[idx]
        if abs(abs(lam) - 1.0) > tol or np.max(np.abs(col_u - lam * col_v)) > tol:
            return False
    return True


@dataclass(frozen=True)
class SignedPauli:
    sign: int            # +1 or -1
    kind: GateKind       # X, Y, or Z

    def __str__(self) -> str:
        return f"{'+' if self.sign > 0 else '-'}{self.kind.value.upper()}"


def clifford_conjugate(c: Circuit, pauli: Circuit | Gate | GateKind, tol: float = 1e-10) -> SignedPauli:
    """Identify C . P . C^dagger as a signed Pauli (error if it is not one)."""
    if isinstance(pauli, GateKind):
        pauli = Circuit(1, (Gate(pauli, (0,)),))
    elif isinstance(pauli, Gate):
        pauli = Circuit(1, (pauli,))
    if c.n_qubits != 1 or pauli.n_qubits != 1:
        raise ValueError("clifford_conjugate works on single-qubit circuits")
    import numpy as np
    uc, up = unitary_of(c), unitary_of(pauli)
    result = uc @ up @ uc.conj().T
    for kind in (GateKind.X, GateKind.Y, GateKind.Z):
        for sign in (1, -1):
            if np.max(np.abs(result - sign * gate_matrix(Gate(kind, (0,))))) <= tol:
                return SignedPauli(sign, kind)
    raise ValueError("conjugation result is not a signed Pauli (C is not Clifford?)")


@dataclass(frozen=True)
class TruthTable:
    n_controls: int
    outputs: tuple[bool, ...]

    def __post_init__(self):
        if len(self.outputs) != 2 ** self.n_controls:
            raise ValueError(f"need {2 ** self.n_controls} outputs, got {len(self.outputs)}")

    def complement(self) -> "TruthTable":
        return TruthTable(self.n_controls, tuple(not o for o in self.outputs))


def template_wires(n_qubits: int) -> tuple[tuple[int, ...], int]:
    """(control wires ascending = c1..c(n-1), target wire) for the symmetric convention."""
    target = n_qubits // 2
    controls = tuple(w for w in range(n_qubits) if w != target)
    return controls, target


def boolean_action(c: Circuit, n_controls: int, tol: float = 1e-9) -> TruthTable:
    """Extract the Boolean function a circuit computes into the target wire.

    Control wires and the target follow the template convention (target =
    middle wire, controls ascending; control_i = bit i-1 of the row index).
    All inputs are simulated at once, as sparse columns.  Errors if
    any basis input leaves the target in superposition or moves a control,
    or if the circuit is wider than MAX_SIM_QUBITS.
    """
    if c.n_qubits != n_controls + 1:
        raise ValueError(f"circuit has {c.n_qubits} qubits, expected {n_controls + 1}")
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"boolean_action supports at most {MAX_SIM_QUBITS} qubits")
    n = c.n_qubits
    controls, target = template_wires(n)
    inputs = [0]   # the basis index of each row: control_i carries bit i-1
    for w in controls:
        inputs += [index | 1 << w for index in inputs]
    final = evolve(c, {index | row << n: 1.0 for row, index in enumerate(inputs)})
    outputs = []
    for row, index in enumerate(inputs):
        out_bit = None
        for bit in (0, 1):
            expected = index | (bit << target) | row << n
            if abs(abs(final.get(expected, 0)) ** 2 - 1.0) <= tol:
                out_bit = bit
                break
        if out_bit is None:
            raise ValueError(f"not a Boolean operator: input row {row:0{n_controls}b} "
                             "leaves target in superposition or moves a control")
        outputs.append(bool(out_bit))
    return TruthTable(n_controls, tuple(outputs))


def reference_columns(kind: str, n_qubits: int) -> Columns:
    """Textbook reference operators as sparse columns (cv, cvdg, ccx)."""
    controls, target = template_wires(n_qubits)
    dim = 2 ** n_qubits
    if kind in ("cv", "cvdg"):
        # SX or SX-dagger on the target where every control is set.
        entries = _ENTRIES_1Q[GateKind.SX if kind == "cv" else GateKind.SXDG]
        columns = {}
        for index in range(dim):
            if all((index >> w) & 1 for w in controls):
                bit, low = index >> target & 1, index & ~(1 << target)
                columns[low | index << n_qubits] = entries[bit]
                columns[low | 1 << target | index << n_qubits] = entries[2 + bit]
            else:
                columns[index | index << n_qubits] = 1.0
        return columns
    if kind == "ccx":
        return permutation_columns(tuple(
            index ^ (all((index >> w) & 1 for w in controls) << target) for index in range(dim)))
    raise ValueError(f"no reference unitary named {kind!r}")


def permutation_columns(perm: tuple[int, ...]) -> Columns:
    """The permutation P with P|i> = |perm[i]> as sparse columns."""
    n_qubits = (len(perm) - 1).bit_length()
    return {dst | src << n_qubits: 1.0 for src, dst in enumerate(perm)}


def reference_unitary(kind: str, n_qubits: int) -> np.ndarray:
    """Textbook reference matrices used as oracles (cv, cvdg, ccx): `reference_columns`, dense."""
    dim = 2 ** n_qubits
    return _dense(reference_columns(kind, n_qubits), n_qubits, dim, dim)


def permutation_unitary(perm: tuple[int, ...]) -> np.ndarray:
    """Permutation matrix P with P|i> = |perm[i]>: `permutation_columns`, dense."""
    dim = len(perm)
    return _dense(permutation_columns(perm), (dim - 1).bit_length(), dim, dim)

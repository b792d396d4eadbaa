"""
Exact statevector/unitary simulation for small circuits (verification oracle).

Conventions, fixed once and used everywhere:
    - Qubit 0 is the least significant bit of the state index.
    - unitary_of applies gates left to right: unitary_of(a + b) = U_b . U_a.
    - RZ(theta) = diag(e^{-i theta/2}, e^{+i theta/2}), so RZ(pi) = -i Z.
    - Named Z, S, T are diag(1, e^{i theta}): equal to RZ only up to global phase.

Equivalence helpers come in three strengths: exact, up to one global phase,
and up to one phase per column (the "relative phase" freedom that the
symmetric templates exploit for Fredkin/Miller/CV constructions).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import cos, pi, sin, sqrt

import numpy as np

from .ir import Circuit, Gate, GateKind

MAX_SIM_QUBITS = 10

_S2 = 1 / sqrt(2)
_MATS_1Q = {
    GateKind.I: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _S2,
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * pi / 4)]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.exp(-1j * pi / 4)]], dtype=complex),
    GateKind.SX: np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    GateKind.SXDG: np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2,
}


_ENTRIES_1Q = {kind: tuple(m.reshape(-1).tolist()) for kind, m in _MATS_1Q.items()}


def _entries(g: Gate) -> tuple[complex, complex, complex, complex]:
    """A one-qubit gate's matrix as its row-major entries (m00, m01, m10, m11)."""
    if g.kind in _ENTRIES_1Q:
        return _ENTRIES_1Q[g.kind]
    if not g.kind.takes_angle:
        raise ValueError(f"no dense matrix for {g.kind.value}")
    half = float(g.angle) / 2
    if g.kind is GateKind.RZ:
        return (cmath.exp(-1j * half), 0j, 0j, cmath.exp(1j * half))
    on, off = complex(cos(half)), -1j * sin(half)   # RX
    return (on, off, off, on)


def gate_matrix(g: Gate) -> np.ndarray:
    """The 2x2 unitary of a one-qubit gate."""
    return np.array(_entries(g), dtype=complex).reshape(2, 2)


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2 ** self.n_qubits:
            raise ValueError(f"need {2 ** self.n_qubits} amplitudes, got {amps.shape[0]}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _evolve(c: Circuit, block: np.ndarray) -> np.ndarray:
    """Apply every gate of c to each column of a (2^n, k) block; returns a new block.

    A one-qubit gate updates the slices a, b (its qubit = 0, 1) in place: a diagonal
    gate scales those whose entry is not 1, others set (a, b) <- (m00 a + m01 b, m10 a + m11 b).
    """
    n = c.n_qubits
    # Qubit q = bit q of the row index = axis n-1-q of the C-order tensor;
    # the last axis runs over the k columns.
    state = np.array(block, dtype=complex).reshape([2] * n + [-1])
    for g in c.gates:
        axes = [n - 1 - q for q in g.qubits]
        if g.kind.n_qubits == 1:
            a, b = (state[(slice(None),) * axes[0] + (bit,)] for bit in (0, 1))
            m00, m01, m10, m11 = _entries(g)
            if m01 or m10:
                a[...], b[...] = m00 * a + m01 * b, m10 * a + m11 * b
            else:
                for part, entry in ((a, m00), (b, m11)):
                    if entry != 1:
                        part *= entry
            continue

        def sel(v0, v1):
            idx = [slice(None)] * (n + 1)
            idx[axes[0]], idx[axes[1]] = v0, v1
            return tuple(idx)

        if g.kind == GateKind.CX:
            state[sel(1, 0)], state[sel(1, 1)] = state[sel(1, 1)].copy(), state[sel(1, 0)].copy()
        elif g.kind == GateKind.CZ:
            state[sel(1, 1)] *= -1
        else:   # SWAP
            state[sel(0, 1)], state[sel(1, 0)] = state[sel(1, 0)].copy(), state[sel(0, 1)].copy()
    return state.reshape(2 ** n, -1)


def apply(c: Circuit, state: StateVector) -> StateVector:
    """Apply every gate of c in order to the state."""
    if c.n_qubits != state.n_qubits:
        raise ValueError(f"circuit on {c.n_qubits} qubits, state on {state.n_qubits}")
    return StateVector(c.n_qubits, _evolve(c, state.amplitudes.reshape(-1, 1)))


def unitary_of(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit (gates applied left to right)."""
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"unitary_of supports at most {MAX_SIM_QUBITS} qubits")
    return _evolve(c, np.eye(2 ** c.n_qubits, dtype=complex))


def equiv_exact(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    return u.shape == v.shape and bool(np.max(np.abs(u - v)) <= tol)


def equiv_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff u = lambda * v for one unit-modulus lambda (within tol elementwise)."""
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
    uc, up = unitary_of(c), unitary_of(pauli)
    result = uc @ up @ uc.conj().T
    for kind in (GateKind.X, GateKind.Y, GateKind.Z):
        for sign in (1, -1):
            if np.max(np.abs(result - sign * _MATS_1Q[kind])) <= tol:
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
    All inputs are simulated at once, as columns of one block.  Errors if
    any basis input leaves the target in superposition or moves a control,
    or if the circuit is wider than MAX_SIM_QUBITS.
    """
    if c.n_qubits != n_controls + 1:
        raise ValueError(f"circuit has {c.n_qubits} qubits, expected {n_controls + 1}")
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"boolean_action supports at most {MAX_SIM_QUBITS} qubits")
    controls, target = template_wires(c.n_qubits)
    rows = range(2 ** n_controls)
    inputs = [0]   # the basis index of each row: control_i carries bit i-1
    for w in controls:
        inputs += [index | 1 << w for index in inputs]
    block = np.zeros((2 ** c.n_qubits, len(rows)), dtype=complex)
    block[inputs, rows] = 1.0
    final = _evolve(c, block)
    outputs = []
    for row, index in enumerate(inputs):
        out_bit = None
        for bit in (0, 1):
            expected = index | (bit << target)
            if abs(abs(final[expected, row]) ** 2 - 1.0) <= tol:
                out_bit = bit
                break
        if out_bit is None:
            raise ValueError(f"not a Boolean operator: input row {row:0{n_controls}b} "
                             "leaves target in superposition or moves a control")
        outputs.append(bool(out_bit))
    return TruthTable(n_controls, tuple(outputs))


def reference_unitary(kind: str, n_qubits: int) -> np.ndarray:
    """Textbook reference matrices used as oracles (cv, cvdg, cswap, ccx...)."""
    controls, target = template_wires(n_qubits)
    dim = 2 ** n_qubits
    if kind in ("cv", "cvdg"):
        block = _MATS_1Q[GateKind.SX if kind == "cv" else GateKind.SXDG]
        u = np.eye(dim, dtype=complex)
        for index in range(dim):
            if all((index >> w) & 1 for w in controls) and not (index >> target) & 1:
                flipped = index | (1 << target)
                u[index, index], u[flipped, index] = block[0, 0], block[1, 0]
                u[index, flipped], u[flipped, flipped] = block[0, 1], block[1, 1]
        return u
    if kind == "ccx":
        u = np.zeros((dim, dim))
        for index in range(dim):
            flip = all((index >> w) & 1 for w in controls)
            u[index ^ (flip << target), index] = 1.0
        return u.astype(complex)
    raise ValueError(f"no reference unitary named {kind!r}")


def permutation_unitary(perm: tuple[int, ...]) -> np.ndarray:
    """Permutation matrix P with P|i> = |perm[i]>."""
    dim = len(perm)
    u = np.zeros((dim, dim), dtype=complex)
    for src, dst in enumerate(perm):
        u[dst, src] = 1.0
    return u

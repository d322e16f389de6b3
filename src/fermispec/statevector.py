"""Dense statevector simulator (hard cap 20 qubits).

States are numpy arrays of shape (2,)*n, optionally with one trailing batch
axis.  Qubit 0 is the first tensor axis (most significant bit of the flat
index).  Every gate is applied in place from its `gate_matrix`, the same
definition the tableau, single-particle and `sector` simulators read; gates
act at the qubit level and Jordan-Wigner bookkeeping is the caller's
responsibility.  The protocol does not use this module: it builds its start
states and runs its number-conserving circuits in their particle-number
sectors (`sector.py`), bounded by their size rather than by QUBIT_CAP,
which guards only the dense register here.  This gate-level path and the
dense JW operators below are the oracles the tests, and for the gates
`fermispec verify`, hold that sector code to.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .circuits import PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind

QUBIT_CAP = 20

_1Q = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Z: np.diag([1, -1]).astype(complex),
    GateKind.S: np.diag([1, 1j]).astype(complex),
    GateKind.SDG: np.diag([1, -1j]).astype(complex),
}

_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
_FSWAP = _SWAP @ _CZ
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
               dtype=complex)
# controlled-iY = CZ . CX
_CY = _CZ @ _CX


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense 2x2 or 4x4 unitary of a gate (two-qubit basis |q_a q_b>)."""
    k = gate.kind
    if k in _1Q:
        return _1Q[k]
    if k is GateKind.RZ:
        return np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    if k is GateKind.CZ:
        return _CZ
    if k is GateKind.CX:
        return _CX
    if k is GateKind.CY:
        return _CY
    if k is GateKind.SWAP:
        return _SWAP
    if k is GateKind.FSWAP:
        return _FSWAP
    if k is GateKind.GIVENS:
        c, sn = np.cos(gate.angle), np.sin(gate.angle)
        m = np.eye(4, dtype=complex)
        m[1, 1] = c
        m[1, 2] = 1j * sn
        m[2, 1] = 1j * sn
        m[2, 2] = c
        return m
    raise ValueError(f"no matrix for {k}")


def zero_state(num_qubits: int) -> np.ndarray:
    if num_qubits > QUBIT_CAP:
        raise ValueError(f"statevector capped at {QUBIT_CAP} qubits, got {num_qubits}")
    return basis_state(num_qubits, (0,) * num_qubits)


def basis_state(num_qubits: int, bits) -> np.ndarray:
    psi = np.zeros((2,) * num_qubits, dtype=complex)
    psi[tuple(int(b) for b in bits)] = 1.0
    return psi


def _resolve_qubits(state: np.ndarray, num_qubits) -> int:
    # a trailing batch axis of size 2 is ambiguous; callers pass num_qubits then
    if num_qubits is not None:
        return num_qubits
    n = state.ndim
    return n - 1 if n and state.shape[-1] != 2 else n


@lru_cache(maxsize=None)
def _row_pattern(kind: GateKind) -> tuple:
    """(scaled, mixed) rows of a kind's gate_matrix, read once from a probe gate.

    Scaled rows only rescale their own block.  Mixed rows are (row, columns).
    Identity rows are in neither.  The probe angle is generic, so its pattern
    covers every angle's.
    """
    qubits = (0, 1) if kind in TWO_QUBIT_KINDS else (0,)
    m = gate_matrix(Gate(kind, qubits, 1.0 if kind in PARAMETRIC_KINDS else None))
    scaled, mixed = [], []
    for r in range(len(m)):
        cols = tuple(np.flatnonzero(m[r]).tolist())
        if cols != (r,):
            mixed.append((r, cols))
        elif m[r, r] != 1:
            scaled.append(r)
    return tuple(scaled), tuple(mixed)


@lru_cache(maxsize=None)
def _block_indices(ndim: int, qubits: tuple) -> tuple:
    """Index r selects the amplitudes where the qubits hold the bits of r.

    The first qubit is the most significant bit.  Length-1 slices keep the
    indexed result a writable view even when every axis is pinned.
    """
    out = []
    for bits in product((0, 1), repeat=len(qubits)):
        idx = [slice(None)] * ndim
        for q, b in zip(qubits, bits):
            idx[q] = slice(b, b + 1)
        out.append(tuple(idx))
    return tuple(out)


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int | None = None) -> np.ndarray:
    """Apply a gate in place from its gate_matrix and return the state.

    Row r of the matrix gives the new amplitude block where the gate's qubits
    hold the bits of r.  Identity rows are skipped.  A row that only rescales
    its block is applied in place: in a unitary no other row reads that block.
    Mixed rows are built aside from the old blocks and then written back;
    the last one goes straight into its block when it does not read it, since
    no row reads that block any more.
    """
    if gate.kind is GateKind.BARRIER:
        return state
    n = _resolve_qubits(state, num_qubits)
    if max(gate.qubits) >= n:
        raise IndexError(f"gate {gate} out of range for {n} qubits")
    m = gate_matrix(gate)
    blocks = [state[idx] for idx in _block_indices(state.ndim, gate.qubits)]
    scaled, mixed = _row_pattern(gate.kind)
    for r in scaled:
        blocks[r] *= m[r, r]
    built = []
    for i, (r, cols) in enumerate(mixed):
        out = blocks[r] if i == len(mixed) - 1 and r not in cols else None
        acc = np.multiply(m[r, cols[0]], blocks[cols[0]], out=out)
        for c in cols[1:]:
            acc += m[r, c] * blocks[c]
        if out is None:
            built.append((r, acc))
    for r, acc in built:
        blocks[r][...] = acc
    return state


def run_circuit(circuit: Circuit, state: np.ndarray | None = None) -> np.ndarray:
    if circuit.num_qubits > QUBIT_CAP:
        raise ValueError(f"statevector capped at {QUBIT_CAP} qubits")
    if state is None:
        state = zero_state(circuit.num_qubits)
    else:
        state = np.array(state, dtype=complex)
    for g in circuit.gates:
        state = apply_gate(state, g, circuit.num_qubits)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary; intended for n <= 12."""
    n = circuit.num_qubits
    if n > 12:
        raise ValueError("dense unitary limited to 12 qubits")
    dim = 2 ** n
    state = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in circuit.gates:
        state = apply_gate(state, g)
    return state.reshape(dim, dim)


def occupations(state: np.ndarray, num_qubits: int | None = None) -> np.ndarray:
    """<n_q> for every qubit q; batched states return shape (n, batch)."""
    n = _resolve_qubits(state, num_qubits)
    p = np.abs(state) ** 2
    out = []
    for q in range(n):
        taken = np.take(p, 1, axis=q)
        axes = tuple(range(n - 1))  # remaining qubit axes; batch axis survives
        out.append(taken.sum(axis=axes))
    return np.array(out)


def unitaries_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    ij = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[ij]) < tol:
        return bool(np.max(np.abs(a - b)) < tol)
    phase = a[ij] / b[ij]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - phase * b)) < tol)


# --------------------------------------------------------------------------
# Jordan-Wigner fermionic operators (dense; small systems only)
# --------------------------------------------------------------------------

def annihilation_operator(num_qubits: int, mode: int) -> np.ndarray:
    """JW annihilation c_mode = Z^(⊗mode) ⊗ sigma^- ⊗ I^(⊗rest), dense.

    Built from the basis index: c_mode empties qubit `mode` with the sign
    (-1)^(occupied qubits before it).
    """
    if num_qubits > 14:
        raise ValueError("dense JW operators limited to 14 qubits")
    dim = 2 ** num_qubits
    src = np.flatnonzero(np.arange(dim) & (1 << (num_qubits - 1 - mode)))
    parity = np.zeros(len(src), dtype=int)
    for q in range(mode):
        parity ^= src >> (num_qubits - 1 - q)
    op = np.zeros((dim, dim), dtype=complex)
    op[src ^ (1 << (num_qubits - 1 - mode)), src] = 1 - 2 * (parity & 1)
    return op


def momentum_annihilation(num_qubits: int, k: float) -> np.ndarray:
    """c(k) = N^(-1/2) sum_j e^{-i j k} c_j over all JW modes."""
    n = num_qubits
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        op = annihilation_operator(n, j)
        op *= np.exp(-1j * j * k)
        out += op
    out /= np.sqrt(n)
    return out

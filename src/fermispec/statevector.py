"""Dense statevector simulator (hard cap 20 qubits).

States are numpy arrays of shape (2,)*n, optionally with one trailing batch
axis.  Qubit 0 is the first tensor axis (most significant bit of the flat
index).  Jordan-Wigner bookkeeping is the caller's responsibility; gates act
at the qubit level.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate, GateKind

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
    psi = np.zeros((2,) * num_qubits, dtype=complex)
    psi[(0,) * num_qubits] = 1.0
    return psi


def basis_state(num_qubits: int, bits) -> np.ndarray:
    psi = np.zeros((2,) * num_qubits, dtype=complex)
    psi[tuple(int(b) for b in bits)] = 1.0
    return psi


def _num_qubit_axes(state: np.ndarray) -> int:
    n = state.ndim
    if n and state.shape[-1] != 2:
        n -= 1  # trailing batch axis
    return n


def _resolve_qubits(state: np.ndarray, num_qubits) -> int:
    # a trailing batch axis of size 2 is ambiguous; callers pass num_qubits then
    return _num_qubit_axes(state) if num_qubits is None else num_qubits


def _apply_matrix_1q(state: np.ndarray, m: np.ndarray, q: int) -> np.ndarray:
    # factor the flat layout as (pre, 2, post); any trailing batch folds into post
    da = 1 << q
    dr = state.size // (2 * da)
    v = state.reshape(da, 2, dr).transpose(0, 2, 1)
    out = v @ m.T
    return out.reshape(da, dr, 2).transpose(0, 2, 1).reshape(state.shape)


def _apply_matrix_2q(state: np.ndarray, m: np.ndarray, a: int, b: int) -> np.ndarray:
    if a > b:
        a, b = b, a
        m = m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    da = 1 << a
    dm = 1 << (b - a - 1)
    dr = state.size // (da * 4 * dm)
    v = state.reshape(da, 2, dm, 2, dr)
    w = v.transpose(0, 2, 4, 1, 3).reshape(da, dm, dr, 4)
    w = w @ m.T
    return (w.reshape(da, dm, dr, 2, 2).transpose(0, 3, 1, 4, 2)
            .reshape(state.shape))


def _block(state: np.ndarray, bits: dict) -> np.ndarray:
    """View of the state with the given qubit axes pinned to 0/1.

    Length-1 slices keep the result a writable view even when every axis is
    pinned.
    """
    idx = [slice(None)] * state.ndim
    for q, v in bits.items():
        idx[q] = slice(v, v + 1)
    return state[tuple(idx)]


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int | None = None) -> np.ndarray:
    """Apply a gate; most kinds mutate the state in place and return it.

    Block-view fast paths cover the permutation-like and diagonal kinds; the
    generic dense path handles the rest.
    """
    k = gate.kind
    if k is GateKind.BARRIER:
        return state
    n = _resolve_qubits(state, num_qubits)
    if any(q >= n for q in gate.qubits):
        raise IndexError(f"gate {gate} out of range for {n} qubits")
    if k is GateKind.RZ:
        _block(state, {gate.qubits[0]: 0})[...] *= np.exp(-0.5j * gate.angle)
        _block(state, {gate.qubits[0]: 1})[...] *= np.exp(0.5j * gate.angle)
        return state
    if k is GateKind.Z:
        _block(state, {gate.qubits[0]: 1})[...] *= -1
        return state
    if k in (GateKind.S, GateKind.SDG):
        _block(state, {gate.qubits[0]: 1})[...] *= 1j if k is GateKind.S else -1j
        return state
    if k is GateKind.X:
        q = gate.qubits[0]
        v0 = _block(state, {q: 0})
        v1 = _block(state, {q: 1})
        tmp = v0.copy()
        v0[...] = v1
        v1[...] = tmp
        return state
    if k is GateKind.CZ:
        a, b = gate.qubits
        _block(state, {a: 1, b: 1})[...] *= -1
        return state
    if k in (GateKind.CX, GateKind.CY):
        c, t = gate.qubits
        v0 = _block(state, {c: 1, t: 0})
        v1 = _block(state, {c: 1, t: 1})
        tmp = v0.copy()
        if k is GateKind.CX:
            v0[...] = v1
            v1[...] = tmp
        else:  # controlled-iY: |10> -> -|11>, |11> -> |10>
            v0[...] = v1
            v1[...] = -tmp
        return state
    if k in (GateKind.SWAP, GateKind.FSWAP):
        a, b = gate.qubits
        v01 = _block(state, {a: 0, b: 1})
        v10 = _block(state, {a: 1, b: 0})
        tmp = v01.copy()
        v01[...] = v10
        v10[...] = tmp
        if k is GateKind.FSWAP:
            _block(state, {a: 1, b: 1})[...] *= -1
        return state
    if k is GateKind.GIVENS:
        a, b = gate.qubits
        c, sn = np.cos(gate.angle), 1j * np.sin(gate.angle)
        v01 = _block(state, {a: 0, b: 1})
        v10 = _block(state, {a: 1, b: 0})
        new01 = c * v01 + sn * v10
        v10[...] = sn * v01 + c * v10
        v01[...] = new01
        return state
    m = gate_matrix(gate)
    if len(gate.qubits) == 1:
        return _apply_matrix_1q(state, m, gate.qubits[0])
    return _apply_matrix_2q(state, m, *gate.qubits)


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
    """<n_q> for every qubit; batched states return shape (n, batch)."""
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

_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
_Z2 = np.diag([1, -1]).astype(complex)
_I2 = np.eye(2, dtype=complex)


def annihilation_operator(num_qubits: int, mode: int) -> np.ndarray:
    """JW annihilation c_mode = Z^(⊗mode) ⊗ sigma^- ⊗ I^(⊗rest), dense."""
    if num_qubits > 14:
        raise ValueError("dense JW operators limited to 14 qubits")
    op = np.array([[1.0 + 0j]])
    for q in range(num_qubits):
        if q < mode:
            op = np.kron(op, _Z2)
        elif q == mode:
            op = np.kron(op, _SIGMA_MINUS)
        else:
            op = np.kron(op, _I2)
    return op


def momentum_annihilation(num_qubits: int, k: float) -> np.ndarray:
    """c(k) = N^(-1/2) sum_j e^{-i j k} c_j over all JW modes."""
    n = num_qubits
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(n):
        out += np.exp(-1j * j * k) * annihilation_operator(n, j)
    return out / np.sqrt(n)

"""Dense statevector reference simulator (hard cap 20 qubits).

States are numpy arrays of shape (2,)*n, optionally with one trailing batch
axis; `apply_gate` and `occupations` take n as an argument.
Qubit 0 is the first tensor axis (most significant bit of the flat index).
`apply_gate` contracts a gate's `circuits.gate_matrix`, the one gate table
the tableau and `sector` simulators read too, over the gate's qubit axes and
writes the result back in place: one matrix product per gate, with no
shortcut for any gate kind.  Gates act at the qubit level; Jordan-Wigner
bookkeeping is the caller's responsibility.  No runtime module imports this
one: the protocol runs its start states and number-conserving circuits in
their particle-number sectors (`sector.py`), bounded by their size rather
than by QUBIT_CAP, which guards only the dense register here.  This
gate-level path and the dense JW operators below are the oracles the tests,
and for the gates `fermispec verify`, hold that sector code to.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate, GateKind, gate_matrix, require_integer, require_qubits

QUBIT_CAP = 20


def zero_state(num_qubits: int) -> np.ndarray:
    require_integer("num_qubits", num_qubits)
    return basis_state(num_qubits, (0,) * num_qubits)


def basis_state(num_qubits: int, bits) -> np.ndarray:
    """|bits> on num_qubits qubits; bits holds num_qubits values, each 0 or 1."""
    require_integer("num_qubits", num_qubits)
    if num_qubits > QUBIT_CAP:
        raise ValueError(f"statevector capped at {QUBIT_CAP} qubits, got {num_qubits}")
    if np.shape(bits) != (num_qubits,) or not all(b in (0, 1) for b in bits):
        raise ValueError(f"bits must be {num_qubits} values, each 0 or 1, got {bits!r}")
    psi = np.zeros((2,) * num_qubits, dtype=complex)
    psi[tuple(int(b) for b in bits)] = 1.0
    return psi


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply a gate in place from its gate_matrix and return the state.

    The gate's qubit axes are moved to the front and flattened into the row
    index of one matrix product, whose result is copied back through the
    same view; a real state refuses the complex result (TypeError).
    """
    if gate.kind is GateKind.BARRIER:
        return state
    require_qubits(gate, gate.qubits, num_qubits)
    view = np.moveaxis(state, gate.qubits, range(len(gate.qubits)))
    m = gate_matrix(gate)
    np.copyto(view, (m @ view.reshape(len(m), -1)).reshape(view.shape))
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
    """Full 2^n x 2^n unitary: the circuit run on the identity batch; n <= 12."""
    n = circuit.num_qubits
    if n > 12:
        raise ValueError("dense unitary limited to 12 qubits")
    dim = 2 ** n
    return run_circuit(circuit, np.eye(dim).reshape((2,) * n + (dim,))).reshape(dim, dim)


def occupations(state: np.ndarray, num_qubits: int) -> np.ndarray:
    """<n_q> for every qubit q; batched states return shape (n, batch)."""
    p = np.abs(state) ** 2
    rest = tuple(range(num_qubits - 1))  # remaining qubit axes; batch axis survives
    return np.array([np.take(p, 1, axis=q).sum(axis=rest) for q in range(num_qubits)])


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

def _jw_lowering(num_qubits: int, mode: int) -> tuple:
    """(dst, src, sign) of the JW annihilation c_mode on basis indices, built
    from the index: c_mode empties qubit `mode` with the sign
    (-1)^(occupied qubits before it)."""
    if num_qubits > 14:
        raise ValueError("dense JW operators limited to 14 qubits")
    bit = 1 << (num_qubits - 1 - mode)
    src = np.flatnonzero(np.arange(2 ** num_qubits) & bit)
    parity = np.zeros(len(src), dtype=int)
    for q in range(mode):
        parity ^= src >> (num_qubits - 1 - q)
    return src ^ bit, src, 1 - 2 * (parity & 1)


def annihilation_operator(num_qubits: int, mode: int) -> np.ndarray:
    """JW annihilation c_mode = Z^(⊗mode) ⊗ sigma^- ⊗ I^(⊗rest), dense."""
    dst, src, sign = _jw_lowering(num_qubits, mode)
    op = np.zeros((2 ** num_qubits,) * 2, dtype=complex)
    op[dst, src] = sign
    return op


def momentum_annihilation(num_qubits: int, k: float) -> np.ndarray:
    """c(k) = N^(-1/2) sum_j e^{-i j k} c_j over all JW modes, dense.

    Each c_j empties a different qubit, so the terms fill disjoint entries.
    """
    n = num_qubits
    terms = [_jw_lowering(n, j) for j in range(n)]
    op = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j, (dst, src, sign) in enumerate(terms):
        op[dst, src] = sign * np.exp(-1j * j * k) / np.sqrt(n)
    return op

"""Stabilizer tableau of a Clifford unitary.

Rows 0..n-1 hold the conjugation images of X_i, rows n..2n-1 those of Z_i,
each as a signed Pauli string: P = (-1)^sign * prod_q W(x_q, z_q) with
W(1,0)=X, W(0,1)=Z, W(1,1)=Y.  Two Clifford unitaries are equal up to global
phase iff their tableaux are identical, so `==` is the phase-quotiented
equivalence check.

Gate updates go through a conjugation lookup table computed from the dense
1- or 2-qubit matrix, which keeps the gate set open (RZ/GIVENS at Clifford
angles included) and rejects non-Clifford gates at application time.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuits import PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind
from .statevector import gate_matrix

_HALF_PI = math.pi / 2


class NonCliffordGateError(ValueError):
    pass


def _pauli_1q(xb: int, zb: int) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    if xb:
        m = np.array([[0, 1], [1, 0]], dtype=complex) @ m
    if zb:
        m = m @ np.diag([1, -1]).astype(complex)
        m = (1j if xb else 1) * m  # W(1,1) = iXZ = Y
    return m


def _match_pauli(m: np.ndarray, nq: int):
    """Return (bits, sign) with m == (-1)^sign * W(bits), or None."""
    rng = [(xb, zb) for xb in (0, 1) for zb in (0, 1)]
    for bits in ([(a,) for a in rng] if nq == 1 else
                 [(a, b) for a in rng for b in rng]):
        p = _pauli_1q(*bits[0])
        for extra in bits[1:]:
            p = np.kron(p, _pauli_1q(*extra))
        for sign in (0, 1):
            if np.allclose(m, (-1) ** sign * p, atol=1e-9):
                flat = tuple(v for pair in bits for v in pair)
                return flat, sign
    return None


def _conjugation_table(u: np.ndarray, nq: int):
    """Map every local Pauli (as packed bits) to its image under u . u^dag."""
    n_patterns = 4 ** nq
    bits_out = np.zeros((n_patterns, 2 * nq), dtype=np.uint8)
    sign_out = np.zeros(n_patterns, dtype=np.uint8)
    for idx in range(n_patterns):
        unpacked = [(idx >> (2 * (nq - 1 - q) + 1)) & 1 for q in range(nq)], \
                   [(idx >> (2 * (nq - 1 - q))) & 1 for q in range(nq)]
        xs, zs = unpacked
        p = _pauli_1q(xs[0], zs[0])
        for q in range(1, nq):
            p = np.kron(p, _pauli_1q(xs[q], zs[q]))
        m = u @ p @ u.conj().T
        hit = _match_pauli(m, nq)
        if hit is None:
            raise NonCliffordGateError("gate does not map Paulis to Paulis")
        bits_out[idx] = hit[0]
        sign_out[idx] = hit[1]
    return bits_out, sign_out


def _table_key(gate: Gate):
    if gate.kind in PARAMETRIC_KINDS:
        steps = gate.angle / _HALF_PI
        r = round(steps)
        if abs(steps - r) > 1e-9:
            raise NonCliffordGateError(
                f"{gate.kind.value} angle {gate.angle} is not a multiple of pi/2")
        return (gate.kind, r % 4)
    return (gate.kind, None)


@lru_cache(maxsize=None)
def _cached_table(kind: GateKind, quarter_turns):
    angle = None if quarter_turns is None else quarter_turns * _HALF_PI
    qubits = (0, 1) if kind in TWO_QUBIT_KINDS else (0,)
    return _conjugation_table(gate_matrix(Gate(kind, qubits, angle)), len(qubits))


class CliffordTableau:
    """Symplectic tableau with sign bits; mutable, composed gate by gate."""

    def __init__(self, num_qubits: int):
        n = num_qubits
        self.num_qubits = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.sign = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1
            self.z[n + i, i] = 1

    def copy(self) -> "CliffordTableau":
        t = CliffordTableau.__new__(CliffordTableau)
        t.num_qubits = self.num_qubits
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.sign = self.sign.copy()
        return t

    def apply_gate(self, gate: Gate) -> "CliffordTableau":
        if gate.kind is GateKind.BARRIER:
            return self
        bits_out, sign_out = _cached_table(*_table_key(gate))
        qs = gate.qubits
        if len(qs) == 1:
            q = qs[0]
            idx = (self.x[:, q].astype(np.intp) << 1) | self.z[:, q]
            img = bits_out[idx]
            self.x[:, q] = img[:, 0]
            self.z[:, q] = img[:, 1]
            self.sign ^= sign_out[idx]
        else:
            a, b = qs
            idx = ((self.x[:, a].astype(np.intp) << 3) | (self.z[:, a].astype(np.intp) << 2)
                   | (self.x[:, b].astype(np.intp) << 1) | self.z[:, b])
            img = bits_out[idx]
            self.x[:, a] = img[:, 0]
            self.z[:, a] = img[:, 1]
            self.x[:, b] = img[:, 2]
            self.z[:, b] = img[:, 3]
            self.sign ^= sign_out[idx]
        return self

    def apply_circuit(self, circuit: Circuit) -> "CliffordTableau":
        for g in circuit.gates:
            self.apply_gate(g)
        return self

    def is_symplectic(self) -> bool:
        """Check the rows still satisfy the Pauli (anti)commutation pattern."""
        n = self.num_qubits
        x = self.x.astype(np.uint8)
        z = self.z.astype(np.uint8)
        comm = (x @ z.T + z @ x.T) % 2  # 1 where rows anticommute
        want = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        for i in range(n):
            want[i, n + i] = want[n + i, i] = 1
        return bool(np.array_equal(comm, want))

    def __eq__(self, other):
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z)
                and np.array_equal(self.sign, other.sign))

    def __hash__(self):
        return hash((self.num_qubits, self.x.tobytes(), self.z.tobytes(),
                     self.sign.tobytes()))

    def __repr__(self):
        return f"CliffordTableau(num_qubits={self.num_qubits})"


def tableau_of(circuit: Circuit) -> CliffordTableau:
    """Tableau of a Clifford circuit; raises NonCliffordGateError otherwise."""
    return CliffordTableau(circuit.num_qubits).apply_circuit(circuit)


def tableau_of_cz_edges(num_qubits: int, edges) -> CliffordTableau:
    t = CliffordTableau(num_qubits)
    for (i, j) in sorted(tuple(sorted(e)) for e in edges):
        t.apply_gate(Gate(GateKind.CZ, (i, j)))
    return t

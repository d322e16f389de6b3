"""Stabilizer tableau of a Clifford unitary.

Rows 0..n-1 hold the conjugation images of X_i, rows n..2n-1 those of Z_i,
each as a signed Pauli string: P = (-1)^sign * prod_q W(x_q, z_q) with
W(1,0)=X, W(0,1)=Z, W(1,1)=Y.  Two Clifford unitaries are equal up to global
phase iff their tableaux are identical, so `==` is the phase-quotiented
equivalence check.

One idea does the work: projecting onto the Pauli basis.  A gate's
conjugation table, cached per (kind, quarter turns), holds the image of each
local Pauli P_a as the one Pauli Q_b with tr(Q_b u P_a u^dag) / 2^nq = +-1,
read from all 4^nq x 4^nq coefficients of the dense 1- or 2-qubit matrix at
once.  This keeps the gate set open (RZ/GIVENS at Clifford angles included)
and rejects non-Clifford gates when their table is built.  A gate updates the
tableau through its table, reading 2 bits (x, z) per gate qubit.  A CZ graph
needs no gates at all: its tableau has a closed form (`tableau_of_cz_edges`).
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


# W(x, z) at packed index 2x + z: I, Z, X, Y
_PAULI_1Q = np.array([np.eye(2), np.diag([1, -1]), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])


def _conjugation_table(u: np.ndarray, nq: int):
    """Map every local Pauli (as packed bits) to its image under u . u^dag.

    Row a of `coef` holds the Pauli-basis coefficients tr(Q_b u P_a u^dag) / 2^nq
    of P_a's image; a Clifford u leaves exactly one of them equal to +-1.
    """
    paulis = np.ones((1, 1, 1))
    for _ in range(nq):    # the first qubit is the most significant
        paulis = np.einsum("aij,bkl->abikjl", paulis, _PAULI_1Q).reshape(
            4 * len(paulis), 2 * paulis.shape[1], -1)
    coef = np.einsum("bij,jk,akl,il->ab", paulis, u, paulis, u.conj(),
                     optimize=True) / 2 ** nq
    plus, minus = np.abs(coef - 1) < 1e-9, np.abs(coef + 1) < 1e-9
    hit = plus | minus
    if (hit.sum(axis=1) != 1).any():
        raise NonCliffordGateError("gate does not map Paulis to Paulis")
    bits_out = (hit.argmax(axis=1)[:, None] >> np.arange(2 * nq - 1, -1, -1)) & 1
    return bits_out.astype(np.uint8), minus.any(axis=1).astype(np.uint8)


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

    def apply_gate(self, gate: Gate) -> "CliffordTableau":
        if gate.kind is GateKind.BARRIER:
            return self
        bits_out, sign_out = _cached_table(*_table_key(gate))
        idx = 0    # 2 bits (x, z) per gate qubit, the first most significant
        for q in gate.qubits:
            idx = idx << 2 | self.x[:, q] << 1 | self.z[:, q]
        img = bits_out[idx].T
        for c, q in enumerate(gate.qubits):
            self.x[:, q], self.z[:, q] = img[2 * c], img[2 * c + 1]
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
    """Tableau of the CZ circuit prod_{(i,j) in edges} CZ_ij.

    In closed form (Hein, Eisert and Briegel, PRA 69, 062311, 2004) it maps
    X_i to X_i prod_{j in N(i)} Z_j with no sign and fixes every Z_i; a
    repeated edge cancels, as CZ^2 = I.
    """
    pairs = np.array(list(edges), dtype=np.intp).reshape(-1, 2)
    if ((pairs < 0) | (pairs >= num_qubits)).any() or (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError(f"CZ edges must join two distinct qubits in [0, {num_qubits})")
    t = CliffordTableau(num_qubits)
    # edge (i, j) toggles Z_j in row X_i and Z_i in row X_j
    np.bitwise_xor.at(t.z, (pairs.ravel(), pairs[:, ::-1].ravel()), np.uint8(1))
    return t

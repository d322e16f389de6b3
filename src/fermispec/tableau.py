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
and rejects non-Clifford gates when their table is built.

The tableau is bit-packed (Aaronson and Gottesman, PRA 70, 052328, 2004):
each qubit's x and z columns are Python ints with bit r for row r, and the
2n signs are one more int.  A second cache compiles each table once into a
program on those columns.  Conjugation is GF(2)-linear on the (x, z) bits,
so each output bit is the XOR of a fixed set of the gate's 2 nq input bits;
the sign flip is a GF(2) polynomial in them, its algebraic normal form read
off the table by a Moebius transform.  A gate then updates all 2n rows at
once with a few int XORs and ANDs.  A CZ graph needs no gates at all: its
tableau has a closed form (`tableau_of_cz_edges`).
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .circuits import (PARAMETRIC_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, GateKind,
                       gate_matrix, require_qubit_count)

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


@lru_cache(maxsize=None)
def _compiled_table(kind: GateKind, quarter_turns):
    """The table as a program on the gate's 2 nq input bits (x, z per gate
    qubit, the first most significant): for each output bit, the input bits
    it XORs; and the sign flip as the input-bit monomials (ANDs) it XORs."""
    bits_out, sign_out = (a.tolist() for a in _cached_table(kind, quarter_turns))
    m = len(bits_out[0])
    inputs = [[idx >> (m - 1 - i) & 1 for i in range(m)] for idx in range(len(sign_out))]
    linear = tuple(tuple(i for i in range(m) if bits_out[1 << (m - 1 - i)][j])
                   for j in range(m))
    anf = list(sign_out)
    for b in range(m):    # Moebius transform: anf[S] = XOR of sign_out[T] over T within S
        for idx in range(len(anf)):
            if idx >> b & 1:
                anf[idx] ^= anf[idx ^ 1 << b]
    monomials = tuple(tuple(i for i in range(m) if bits[i])
                      for bits, a in zip(inputs, anf) if a)
    for bits, want_bits, want_sign in zip(inputs, bits_out, sign_out):
        assert [sum(bits[i] for i in t) % 2 for t in linear] == want_bits
        assert sum(all(bits[i] for i in mono) for mono in monomials) % 2 == want_sign
    return linear, monomials


def _unpack(columns, rows: int) -> np.ndarray:
    """(rows, len(columns)) uint8 array whose [r, c] is bit r of columns[c]."""
    nbytes = (rows + 7) // 8
    raw = np.frombuffer(b"".join(c.to_bytes(nbytes, "little") for c in columns), np.uint8)
    bits = np.unpackbits(raw.reshape(len(columns), nbytes), axis=1, count=rows,
                         bitorder="little")
    out = np.ascontiguousarray(bits.T)
    out.flags.writeable = False
    return out


class CliffordTableau:
    """Symplectic tableau with sign bits; mutable, composed gate by gate.

    `x`, `z` and `sign` are read-only (2n, n), (2n, n) and (2n,) uint8 copies
    of the packed columns.
    """

    def __init__(self, num_qubits: int):
        require_qubit_count(num_qubits)
        n = self.num_qubits = num_qubits
        self._x = [1 << q for q in range(n)]
        self._z = [1 << (n + q) for q in range(n)]
        self._sign = 0

    @property
    def x(self) -> np.ndarray:
        return _unpack(self._x, 2 * self.num_qubits)

    @property
    def z(self) -> np.ndarray:
        return _unpack(self._z, 2 * self.num_qubits)

    @property
    def sign(self) -> np.ndarray:
        return _unpack([self._sign], 2 * self.num_qubits)[:, 0]

    def apply_gate(self, gate: Gate) -> "CliffordTableau":
        if gate.kind is GateKind.BARRIER:
            return self
        linear, monomials = _compiled_table(*_table_key(gate))
        if max(gate.qubits) >= self.num_qubits:
            raise ValueError(f"gate {gate} out of range for {self.num_qubits} qubits")
        xs, zs = self._x, self._z
        ins = [col for q in gate.qubits for col in (xs[q], zs[q])]
        out = []
        for terms in linear:
            v = 0
            for i in terms:
                v ^= ins[i]
            out.append(v)
        for mono in monomials:    # none is empty, as the identity keeps its + sign
            v = -1
            for i in mono:
                v &= ins[i]
            self._sign ^= v
        for c, q in enumerate(gate.qubits):
            xs[q], zs[q] = out[2 * c], out[2 * c + 1]
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
        return (self.num_qubits == other.num_qubits and self._x == other._x
                and self._z == other._z and self._sign == other._sign)

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
    t = CliffordTableau(num_qubits)
    for edge in edges:
        i, j = map(operator.index, edge)
        if not (0 <= i < num_qubits and 0 <= j < num_qubits) or i == j:
            raise ValueError(f"CZ edges must join two distinct qubits in [0, {num_qubits})")
        # edge (i, j) toggles Z_j in row X_i and Z_i in row X_j
        t._z[j] ^= 1 << i
        t._z[i] ^= 1 << j
    return t

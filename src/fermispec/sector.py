"""Particle-number sector simulator for number-conserving circuits.

A number-conserving circuit keeps a state with k particles in the span of the
k-particle occupation bitstrings, C(n, k) of the 2**n.  A `Basis` holds the
sorted bitstrings of one or more particle numbers.  Qubit 0 is the most
significant bit, as in `statevector`, so a bitstring is also the flat index
of its amplitude in a dense state, and ranks come from `np.searchsorted`.

`compile_circuit` turns a circuit into a short program over a basis, and
`run_program` applies it in place to a vector over that basis, with or
without a trailing batch axis.  Compilation first merges consecutive gates
confined to the same one or two qubits into one matrix: the interaction bond
rz, rz, cx, rz, cx becomes a diagonal although its CX alone does not
conserve particle number.  Each merged block splits by particle number
(`gaussian.number_parts`) into phases on |00> and |11> and a 2x2 map on the
pair |01>, |10>.  A block whose pair map is diagonal is a diagonal over the
basis, and one whose pair map is a signed swap (FSWAP) a signed permutation
of the basis; runs of these compose into one op.  Any other pair map is a
"pair" op on the ranks of the partner states, cached per qubit pair.  A block
that mixes particle numbers raises `gaussian.ParticleConservationError`.

This is the number-sector approach of the Fermionic Quantum Emulator (Rubin
et al., Quantum 5, 568, 2021), on qubit-level gates.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, GateKind
from .gaussian import number_parts
from .statevector import gate_matrix

_SWAPPED = [0, 2, 1, 3]    # two-qubit basis order with the qubits exchanged


def _bitstrings(num_qubits: int, k: int) -> np.ndarray:
    """Sorted bitstrings of num_qubits bits with k of them set.

    Built from combinations, one bit at a time: the strings of the lowest m
    bits with j set are those of m - 1 bits with j set, then bit m - 1 joined
    to those with j - 1 set, which keeps them sorted.
    """
    level = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * k
    for m in range(num_qubits):
        top = np.int64(1) << m
        level = [level[0]] + [np.concatenate([level[j], level[j - 1] | top])
                              for j in range(1, k + 1)]
    return level[k]


class Basis:
    """Sorted int64 occupation bitstrings of `num_qubits` qubits.

    `particle_numbers` selects the sectors; None is the full 2**num_qubits
    basis.  Per-qubit occupations and per-pair index arrays are cached.
    A bitstring is an int64, so at most 63 qubits fit.
    """

    def __init__(self, num_qubits: int, particle_numbers=None):
        if num_qubits > 63:
            raise ValueError(f"{num_qubits} qubits exceed the 63-qubit limit of "
                             f"int64 bitstrings")
        self.num_qubits = num_qubits
        if particle_numbers is None:
            self.bits = np.arange(2 ** num_qubits, dtype=np.int64)
        else:
            ks = sorted(set(int(k) for k in particle_numbers))
            if ks and (ks[0] < 0 or ks[-1] > num_qubits):
                raise ValueError(f"particle numbers {ks} outside 0..{num_qubits}")
            self.bits = np.sort(np.concatenate(
                [_bitstrings(num_qubits, k) for k in ks] or [np.zeros(0, np.int64)]))
        self._occupied: dict = {}
        self._pairs: dict = {}

    def __len__(self) -> int:
        return len(self.bits)

    def particle_numbers(self) -> np.ndarray:
        """Particle number of each basis state."""
        return np.bitwise_count(self.bits)

    def occupied(self, q: int) -> np.ndarray:
        """Bool array: qubit q is 1 in each basis state."""
        if q not in self._occupied:
            self._occupied[q] = ((self.bits >> (self.num_qubits - 1 - q)) & 1).astype(bool)
        return self._occupied[q]

    def diagonal(self, qubits: tuple, entries) -> np.ndarray:
        """Vector over the basis holding entries[i] for each state, i the bits
        of `qubits` in that state (the first most significant)."""
        index = self.occupied(qubits[0]).astype(np.intp)
        for q in qubits[1:]:
            index = 2 * index + self.occupied(q)
        return np.asarray(entries, dtype=complex)[index]

    def pair(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Ranks (i01, i10) of the states with (bit a, bit b) = (0, 1) and of
        their partners with (1, 0)."""
        if (a, b) not in self._pairs:
            i01 = np.flatnonzero(~self.occupied(a) & self.occupied(b))
            flip = (1 << (self.num_qubits - 1 - a)) | (1 << (self.num_qubits - 1 - b))
            self._pairs[a, b] = (i01, np.searchsorted(self.bits, self.bits[i01] ^ flip))
        return self._pairs[a, b]


def _lift(u: np.ndarray, qubits: tuple, onto: tuple) -> np.ndarray:
    """A matrix on `qubits` as a matrix on `onto`, which holds them (<= 2 qubits)."""
    if qubits == onto:
        return u
    if len(qubits) == 2:          # the same pair in the other order
        return u[_SWAPPED][:, _SWAPPED]
    out = np.zeros((4, 4), dtype=complex)
    if qubits[0] == onto[0]:      # u (x) I
        out[0::2, 0::2] = out[1::2, 1::2] = u
    else:                         # I (x) u
        out[:2, :2] = out[2:, 2:] = u
    return out


def _blocks(circuit: Circuit):
    """(qubits, matrix, kinds) of each maximal run of consecutive gates
    confined to the same one or two qubits."""
    qubits, m, kinds = (), None, []
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            continue
        union = qubits + tuple(q for q in g.qubits if q not in qubits)
        if m is not None and len(union) <= 2:
            m = _lift(gate_matrix(g), g.qubits, union) @ _lift(m, qubits, union)
            qubits = union
            kinds.append(g.kind.value)
            continue
        if m is not None:
            yield qubits, m, kinds
        qubits, m, kinds = g.qubits, gate_matrix(g), [g.kind.value]
    if m is not None:
        yield qubits, m, kinds


def compile_circuit(circuit: Circuit, basis: Basis) -> list[tuple]:
    """A circuit as a list of ops over `basis`.

    ("diag", d) multiplies by the vector d; ("perm", r, d) maps the state x
    to d * x[r]; ("pair", idx, u) maps the amplitude pairs at ranks
    idx = (i01, i10) by the 2x2 u.  A block whose pair map is diagonal or a
    signed swap is a diag or a perm; runs of them become one op.
    """
    if circuit.num_qubits != basis.num_qubits:
        raise ValueError(f"{circuit.num_qubits}-qubit circuit on a "
                         f"{basis.num_qubits}-qubit basis")
    program = []
    ranks = phases = None        # pending run: new[i] = phases[i] * old[ranks[i]]

    def monomial(ph, r=None):
        nonlocal ranks, phases
        if phases is None:
            ranks, phases = r, ph
        elif r is None:
            phases = ph * phases
        else:
            ranks, phases = (r if ranks is None else ranks[r]), ph * phases[r]

    def flush():
        nonlocal ranks, phases
        if phases is not None:
            program.append(("diag", phases) if ranks is None else ("perm", ranks, phases))
        ranks = phases = None

    for qubits, m, kinds in _blocks(circuit):
        empty, full, pair = number_parts(m, f"{' '.join(kinds)} on qubits {qubits}")
        if pair is None:
            monomial(basis.diagonal(qubits, (empty, full)))
        elif pair[0, 1] == 0 and pair[1, 0] == 0:
            monomial(basis.diagonal(qubits, (empty, pair[0, 0], pair[1, 1], full)))
        elif pair[0, 0] == 0 and pair[1, 1] == 0:
            i01, i10 = basis.pair(*qubits)
            r = np.arange(len(basis))
            r[i01], r[i10] = i10, i01
            monomial(basis.diagonal(qubits, (empty, pair[0, 1], pair[1, 0], full)), r)
        else:
            if empty != 1 or full != 1:
                monomial(basis.diagonal(qubits, (empty, 1, 1, full)))
            flush()
            program.append(("pair", np.concatenate(basis.pair(*qubits)), pair))
    flush()
    return program


def run_program(program: list[tuple], state: np.ndarray) -> np.ndarray:
    """Apply a compiled program in place to a vector over its basis, with or
    without a trailing batch axis; returns the state."""
    col = (slice(None),) + (None,) * (state.ndim - 1)
    for op in program:
        if op[0] == "diag":
            state *= op[1][col]
        elif op[0] == "perm":
            np.multiply(state[op[1]], op[2][col], out=state)
        else:
            _, idx, u = op
            v = state[idx]
            state[idx] = (u @ v.reshape(2, -1)).reshape(v.shape)
    return state

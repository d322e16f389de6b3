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
(`number_parts`) into phases on |00> and |11> and a 2x2 map on the pair
|01>, |10>.  A block whose pair map is diagonal is a diagonal over the
basis, and one whose pair map is a signed swap (FSWAP) a signed permutation
of the basis; runs of these compose into one op.  Any other pair map is a
"pair" op on the ranks of the partner states, cached per qubit pair.  A block
that mixes particle numbers raises `ParticleConservationError`.  Each
distinct run is merged and split once per call.

`annihilate` and `create` apply the momentum-mode fermion operators c(k) and
c^dag(k), with every qubit a Jordan-Wigner mode, to a vector or batch over a
basis, for every k at once.  Per mode j the partner ranks come from
`np.searchsorted` and the JW sign from the popcount of the qubits before j,
the higher bits (`Basis.lowering`, cached); the sum over j with
e^{-ijk}/sqrt(n) is one FFT over the mode axis.

The protocol builds its start states and runs its fillings here, the
baseline its state's sector and the two next to it, H_sys one eigh per
sector, the Lehmann reference c(k) psi0 and c^dag(k) psi0 on the sectors
next to psi0's, and `gaussian.extract_mode_transform` sectors 0 and 1.
This is the number-sector approach of the Fermionic Quantum Emulator (Rubin
et al., Quantum 5, 568, 2021), on qubit-level gates.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, GateKind, gate_matrix, require_integer

_SWAPPED = [0, 2, 1, 3]    # two-qubit basis order with the qubits exchanged


class ParticleConservationError(ValueError):
    pass


# entries between basis states of different particle numbers, by matrix size
_MIXING = {len(c): np.not_equal.outer(c, c) for c in ([0, 1], [0, 1, 1, 2])}


def number_parts(u: np.ndarray, what: str) -> tuple:
    """Split a 2x2 or 4x4 gate matrix by particle number: (empty, full, pair).

    `empty` and `full` are the phases on |0> and |1> (|00> and |11>); `pair`
    is None for 2x2 and, for 4x4, the 2x2 map on the one-particle pair
    (|01>, |10>) in the two-qubit basis index 2*bit_a + bit_b.  A matrix that
    mixes particle numbers raises ParticleConservationError naming `what`.
    """
    if np.abs(u[_MIXING[len(u)]]).max() > 1e-14:
        raise ParticleConservationError(f"{what} does not conserve particle number")
    if len(u) == 2:
        return u[0, 0], u[1, 1], None
    return u[0, 0], u[3, 3], u[1:3, 1:3]


def _bitstrings(num_qubits: int, k: int, dtype: np.dtype) -> np.ndarray:
    """Sorted bitstrings of num_qubits bits with k of them set, as `dtype`.

    Built from combinations, one bit at a time: the strings of the lowest m
    bits with j set are those of m - 1 bits with j set, then bit m - 1 joined
    to those with j - 1 set, which keeps them sorted.
    """
    level = [np.zeros(1, dtype)] + [np.zeros(0, dtype)] * k
    for m in range(num_qubits):
        top = dtype.type(1) << m
        lo = max(1, k - num_qubits + m + 1)     # lower levels can no longer reach k
        level = level[:lo] + [np.concatenate([level[j], level[j - 1] | top])
                              for j in range(lo, k + 1)]
    return level[k]


def parity_sign(x: np.ndarray) -> np.ndarray:
    """(-1)^popcount(x) as int64, for int64 or object (Python int) bitstrings.
    `np.bitwise_count` returns uint8, on which 1 - 2 * odd would wrap."""
    return 1 - 2 * (np.bitwise_count(x).astype(np.int64) & 1)


class Basis:
    """Sorted occupation bitstrings of `num_qubits` qubits.

    `particle_numbers` selects the sectors; None is the full 2**num_qubits
    basis.  A bitstring is an int64 up to 63 qubits and a Python int (object
    array) beyond.  Per-qubit occupations and annihilator tables, and
    per-pair index arrays, are cached.
    """

    def __init__(self, num_qubits: int, particle_numbers=None):
        require_integer("num_qubits", num_qubits)
        self.num_qubits = num_qubits
        if particle_numbers is None:
            self.bits = np.arange(2 ** num_qubits, dtype=np.int64)
        else:
            ks = set(particle_numbers)
            for k in ks:
                require_integer("particle number", k)
            ks = sorted(map(int, ks))
            if ks and ks[-1] > num_qubits:
                raise ValueError(f"particle numbers {ks} outside 0..{num_qubits}")
            dtype = np.dtype(np.int64 if num_qubits <= 63 else object)
            self.bits = np.sort(np.concatenate(
                [_bitstrings(num_qubits, k, dtype) for k in ks] or [np.zeros(0, dtype)]))
        self._occupied: dict = {}
        self._pairs: dict = {}
        self._lowerings: dict = {}

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

    def lowering(self, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, sign) of the JW annihilator c_q: the ranks of the states
        with qubit q occupied whose partner, q emptied, is in the basis, the
        ranks of those partners, and the sign (-1)^(occupied qubits before q)."""
        if q not in self._lowerings:
            src = np.flatnonzero(self.occupied(q))
            partner = self.bits[src] ^ (1 << (self.num_qubits - 1 - q))
            dst = np.minimum(np.searchsorted(self.bits, partner), len(self.bits) - 1)
            keep = self.bits[dst] == partner
            src, dst = src[keep], dst[keep]
            self._lowerings[q] = (src, dst, parity_sign(self.bits[src] >> (self.num_qubits - q)))
        return self._lowerings[q]


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
    """(qubits, gates) of each maximal run of consecutive gates confined to
    the same one or two qubits, `qubits` in order of first use."""
    qubits, run = (), []
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            continue
        union = qubits + tuple(q for q in g.qubits if q not in qubits)
        if run and len(union) > 2:
            yield qubits, run
            union, run = g.qubits, []
        qubits = union
        run.append(g)
    if run:
        yield qubits, run


def _parts(gates: list) -> tuple:
    """`number_parts` of the merged matrix of a run of gates."""
    qubits, m = gates[0].qubits, gate_matrix(gates[0])
    for g in gates[1:]:
        union = qubits + tuple(q for q in g.qubits if q not in qubits)
        qubits, m = union, _lift(gate_matrix(g), g.qubits, union) @ _lift(m, qubits, union)
    return number_parts(m, f"{' '.join(g.kind.value for g in gates)} on qubits {qubits}")


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
    parts: dict = {}    # `_parts` per run key, not per Gate: Gate equates angles 1e-12 apart
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

    for qubits, gates in _blocks(circuit):
        # (kind, angle, positions in qubits) of each gate fix the run's matrix
        key = tuple((g.kind, g.angle, tuple(map(qubits.index, g.qubits))) for g in gates)
        if key not in parts:
            parts[key] = _parts(gates)
        empty, full, pair = parts[key]
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


def _mode_terms(basis: Basis, x: np.ndarray, adjoint: bool) -> np.ndarray:
    """c_j x, or c_j^dag x when `adjoint`, for every qubit j, as out[j]."""
    out = np.zeros((basis.num_qubits,) + x.shape, dtype=complex)
    col = (slice(None),) + (None,) * (x.ndim - 1)
    for j in range(basis.num_qubits):
        src, dst, sign = basis.lowering(j)
        to, frm = (src, dst) if adjoint else (dst, src)
        out[j, to] = sign[col] * x[frm]
    return out


def annihilate(basis: Basis, x: np.ndarray) -> np.ndarray:
    """c(k) x for the momenta k = 2 pi m / n of the n qubits of `basis`, as out[m].

    c(k) = n^(-1/2) sum_j e^{-ijk} c_j, with c_j the JW annihilator of qubit
    j.  x is a vector over the basis, with or without trailing batch axes, and
    so is each out[m].  Amplitudes mapped outside the basis are dropped, so
    the basis must hold the sector below each of x's for the exact c(k) x.
    """
    return np.fft.fft(_mode_terms(basis, x, False), axis=0) / np.sqrt(basis.num_qubits)


def create(basis: Basis, x: np.ndarray) -> np.ndarray:
    """c^dag(k) x for the momenta k = 2 pi m / n, as out[m]: the adjoint of
    `annihilate`, exact when the basis holds the sector above each of x's."""
    return np.fft.ifft(_mode_terms(basis, x, True), axis=0) * np.sqrt(basis.num_qubits)

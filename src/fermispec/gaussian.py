"""Single-particle (mode) transfer matrices and free-fermion Gaussian states.

Conventions, fixed once and validated by the oracle tests:

 * The mode transform T of a particle-conserving circuit U satisfies
   U c_j U^dag = sum_l T[j, l] c_l   (Heisenberg picture).
 * A state evolved as |psi> -> U|psi> has its correlation matrix
   C[i, j] = <c_i^dag c_j> mapped to  C -> T^T C conj(T).
 * Many-body evolution by exp(+i H t) with single-particle matrix h
   (H = sum h[i,j] c_i^dag c_j) has transfer T = exp(-i t h).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, GateKind
from .statevector import gate_matrix


class ParticleConservationError(ValueError):
    pass


_BLOCK_MIXING_2Q = [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3), (3, 1),
                    (3, 2), (1, 3), (2, 3)]
# (rows, columns) of the entries that change particle number, by matrix size
_MIXING = {2: ([0, 1], [1, 0]), 4: tuple(map(list, zip(*_BLOCK_MIXING_2Q)))}


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


def _sector_action(gate: Gate, num_modes: int):
    """(S, vac) with S the single-excitation matrix and vac the |0...0> phase."""
    empty, full, pair = number_parts(gate_matrix(gate), gate.kind.value)
    if pair is None:
        s = np.full(num_modes, empty, dtype=complex)
        s[gate.qubits[0]] = full
        return ("diag", s), empty
    a, b = gate.qubits
    # |e_a> is the pair's second state (|10>), |e_b> its first (|01>)
    return ("block", (a, b, empty, pair[::-1, ::-1])), empty


def extract_mode_transform(circuit: Circuit) -> np.ndarray:
    """N x N transfer matrix from the single-excitation sector.

    CZ acts as identity in this sector, so the result certifies only the
    single-particle action; multi-particle correctness of CZ-carrying
    circuits is checked by the dense oracles.  Gates that mix particle
    numbers (X, CX, CY) are rejected.
    """
    n = circuit.num_qubits
    s_total = np.eye(n, dtype=complex)
    vac = 1.0 + 0j
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            continue
        action, v = _sector_action(g, n)
        vac *= v
        if action[0] == "diag":
            s_total = action[1][:, None] * s_total
        else:
            a, b, scale, block = action[1]
            row_a = s_total[a].copy()
            row_b = s_total[b].copy()
            s_total *= scale
            s_total[a] = block[0, 0] * row_a + block[0, 1] * row_b
            s_total[b] = block[1, 0] * row_a + block[1, 1] * row_b
    return vac * s_total.conj().T


def dft_matrix(n: int) -> np.ndarray:
    """DFT with the +2*pi*i sign: F[j, l] = exp(2i pi j l / n) / sqrt(n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


# --------------------------------------------------------------------------
# Gaussian states
# --------------------------------------------------------------------------

@dataclass
class GaussianState:
    """Free-fermion state characterized by C[i, j] = <c_i^dag c_j>."""
    corr: np.ndarray

    @property
    def num_modes(self) -> int:
        return self.corr.shape[0]

    def check(self, tol: float = 1e-10) -> None:
        c = self.corr
        if np.max(np.abs(c - c.conj().T)) > tol:
            raise ValueError("correlation matrix not Hermitian")
        w = np.linalg.eigvalsh(c)
        if w.min() < -tol or w.max() > 1 + tol:
            raise ValueError("correlation eigenvalues outside [0, 1]")

    def occupations(self) -> np.ndarray:
        return self.corr.diagonal().real.copy()


def vacuum_state(num_modes: int) -> GaussianState:
    return GaussianState(np.zeros((num_modes, num_modes), dtype=complex))


def filled_state(num_modes: int) -> GaussianState:
    return GaussianState(np.eye(num_modes, dtype=complex))


def state_from_momentum_occupations(rho: np.ndarray) -> GaussianState:
    """Diagonal momentum ensemble: C[j, j'] = (1/N) sum_k rho_k e^{i k (j'-j)}.

    Momentum labels follow c(k) = N^(-1/2) sum_j e^{-i j k} c_j with
    k = 2 pi n / N.
    """
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[0]
    f = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    return GaussianState(f.conj() @ np.diag(rho) @ f.T)


def evolve_gaussian(state: GaussianState, transform: np.ndarray) -> GaussianState:
    """Apply a circuit/propagator with mode transform T: C -> T^T C conj(T)."""
    t = np.asarray(transform)
    if t.shape != state.corr.shape:
        raise ValueError("dimension mismatch")
    return GaussianState(t.T @ state.corr @ t.conj())


def momentum_occupations(state: GaussianState) -> np.ndarray:
    """<c(k)^dag c(k)> on the k = 2 pi n / N grid, same convention as above."""
    n = state.num_modes
    w = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    return np.einsum("jk,jl,lk->k", w.conj(), state.corr, w).real


# --------------------------------------------------------------------------
# coupled system-environment single-particle Hamiltonian
# --------------------------------------------------------------------------

def coupled_hamiltonian(num_sites: int, nu: float, epsilon: float,
                        omega: float) -> np.ndarray:
    """2N x 2N single-particle matrix over interleaved modes c_0,d_0,c_1,d_1,...

    System hopping nu with periodic boundary, system-environment coupling
    epsilon/2 on matching sites, environment on-site energy omega.
    """
    n = num_sites
    h = np.zeros((2 * n, 2 * n))
    bonds = range(n if n > 2 else n - 1)  # avoid double bond at n == 2
    for j in bonds:
        a, b = 2 * j, 2 * ((j + 1) % n)
        h[a, b] += nu
        h[b, a] += nu
    for j in range(n):
        h[2 * j, 2 * j + 1] = epsilon / 2
        h[2 * j + 1, 2 * j] = epsilon / 2
        h[2 * j + 1, 2 * j + 1] = omega
    return h


def mode_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Transfer matrix exp(-i t h) of exp(+i H t), via Hermitian eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def system_block(h: np.ndarray) -> np.ndarray:
    return h[0::2, 0::2]


def environment_block(corr: np.ndarray) -> np.ndarray:
    return corr[1::2, 1::2]

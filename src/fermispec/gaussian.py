"""Single-particle (mode) transfer matrices and free-fermion Gaussian states.

A Gaussian state is its correlation matrix C[i, j] = <c_i^dag c_j>, held as
a plain complex array.  Evolution may take a block of columns of the
transfer T, and then returns only the correlation block on those modes.

The transfer of a gate-level circuit is read off its zero- and one-particle
sectors, run by the `sector` engine (`extract_mode_transform`).

Conventions, fixed once and validated by the oracle tests:

 * The mode transform T of a particle-conserving circuit U satisfies
   U c_j U^dag = sum_l T[j, l] c_l   (Heisenberg picture).
 * A state evolved as |psi> -> U|psi> has its correlation matrix mapped
   to  C -> T^T C conj(T).
 * Many-body evolution by exp(+i H t) with single-particle matrix h
   (H = sum h[i,j] c_i^dag c_j) has transfer T = exp(-i t h).
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit
from . import sector


def extract_mode_transform(circuit: Circuit) -> np.ndarray:
    """N x N transfer matrix of a number-conserving circuit.

    One `sector` program over Basis(N, (0, 1)) runs on the (N+1) x (N+1)
    identity batch.  Amplitude [0, 0] is the vacuum phase vac; the rest, in
    reversed rank order (rank N - q holds qubit q), is the one-particle block
    S, and T = vac * S^dag.  CZ is the identity on these sectors; the dense
    oracles check CZ-carrying circuits.  A lone X, CX or CY raises
    `sector.ParticleConservationError`.
    """
    n = circuit.num_qubits
    basis = sector.Basis(n, (0, 1))
    out = sector.run_program(sector.compile_circuit(circuit, basis),
                             np.eye(n + 1, dtype=complex))
    return out[0, 0] * out[:0:-1, :0:-1].conj().T


def dft_matrix(n: int) -> np.ndarray:
    """DFT with the +2*pi*i sign: F[j, l] = exp(2i pi j l / n) / sqrt(n)."""
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


# --------------------------------------------------------------------------
# Gaussian states: a state is its correlation matrix C[i, j] = <c_i^dag c_j>
# --------------------------------------------------------------------------

def state_from_momentum_occupations(rho: np.ndarray) -> np.ndarray:
    """Diagonal momentum ensemble: C[j, j'] = (1/N) sum_k rho_k e^{i k (j'-j)}.

    Momentum labels follow c(k) = N^(-1/2) sum_j e^{-i j k} c_j with
    k = 2 pi n / N.
    """
    rho = np.asarray(rho, dtype=float)
    f = dft_matrix(rho.shape[0])
    return (f.conj() * rho) @ f.T


def evolve_gaussian(corr: np.ndarray, transform: np.ndarray) -> np.ndarray:
    """Apply a circuit/propagator with mode transform T: C -> T^T C conj(T).

    T may be a modes x m block of the transfer's columns, T[:, S]; the result
    is then the m x m block of the evolved C on the modes S.
    """
    t = np.asarray(transform)
    if t.ndim != 2 or corr.shape != (t.shape[0], t.shape[0]):
        raise ValueError("dimension mismatch")
    return t.T @ corr @ t.conj()


def momentum_occupations(corr: np.ndarray) -> np.ndarray:
    """<c(k)^dag c(k)> on the k = 2 pi n / N grid, same convention as above."""
    f = dft_matrix(corr.shape[0])
    return np.einsum("jk,jk->k", f, corr @ f.conj()).real


# --------------------------------------------------------------------------
# coupled system-environment single-particle Hamiltonian
# --------------------------------------------------------------------------

def chain_bonds(n: int) -> range:
    """Nearest-neighbour bonds (j, j+1 mod n) of the periodic chain; two sites
    share a single bond."""
    return range(n if n > 2 else n - 1)


def coupled_hamiltonian(num_sites: int, nu: float, epsilon: float,
                        omega: float) -> np.ndarray:
    """2N x 2N single-particle matrix over interleaved modes c_0,d_0,c_1,d_1,...

    System hopping nu on the chain_bonds, system-environment coupling
    epsilon/2 on matching sites, environment on-site energy omega.
    """
    n = num_sites
    h = np.zeros((2 * n, 2 * n))
    for j in chain_bonds(n):
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

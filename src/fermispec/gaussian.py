"""Single-particle (mode) transfer matrices and free-fermion Gaussian states.

A Gaussian state is its correlation matrix C[i, j] = <c_i^dag c_j>, held as
a plain complex array.  Evolution through a block of columns T[:, S] of a
transfer returns only the correlation block on the modes S.  Momentum
occupations are read with FFTs, without forming the DFT matrix.

The transfer of a gate-level circuit is read off its zero- and one-particle
sectors, run by the `sector` engine (`extract_mode_transform`).

Conventions, fixed once and validated by the oracle tests:

 * The mode transform T of a particle-conserving circuit U satisfies
   U c_j U^dag = sum_l T[j, l] c_l   (Heisenberg picture).
 * A state evolved as |psi> -> U|psi> has its correlation matrix mapped
   to  C -> T^T C conj(T).
 * Many-body evolution by exp(+i H t) with single-particle matrix h
   (H = sum h[i,j] c_i^dag c_j) has transfer T = exp(-i t h).

The coupled system-environment matrix, over (system, environment) modes, is
h(omega) = [[H_s, e I], [e I, omega I]] with e = epsilon / 2 and H_s the real
N x N system hopping.  Both are renderings of the chain's one term list,
`protocol._one_particle` at stride 1 (H_s) and 2 (h(omega) over the
interleaved modes c_0, d_0, c_1, ...).  In the eigenbasis U of
H_s = U diag(lambda) U^T, h(omega) splits into N 2 x 2 blocks
[[lambda_m, e], [e, omega]], so with delta = (lambda - omega) / 2,
r = sqrt(delta^2 + e^2), s = sin(r t) / r and g = exp(-i t (lambda + omega) / 2)
the transfer's blocks are

    T_se = T_es = U diag(beta) U^T,    beta  = -i e s g,
    T_ee        = U diag(gamma) U^T,   gamma = g (cos(r t) + i delta s),

(`coupled_transfer`), and one eigendecomposition of H_s serves every omega.
`mode_propagator` of the stride-2 rendering is the dense 2N x 2N oracle.

The environment's momentum occupations after the transfer are read in the
same eigenbasis (`environment_occupations`).  The protocol's system starts
momentum-diagonal, C = conj(F) diag(rho) F^T with F = `dft_matrix(N)`.  With
Q = U^T F and conj(F) = F P, where P relabels p -> -p mod N, the environment
block T_se^T C conj(T_se) has the momentum diagonal

    n(k) = sum_p rho_{-p} |S[p, k]|^2,   S = W^T W,   W = diag(sqrt(beta)) Q,

so Q is formed once per U (sqrt(N) times the inverse FFT along the rows of
U^T) and each omega costs one complex-symmetric product W^T W and one N x N
reduction.  A filled environment adds the diagonal of T_ee T_ee^dag read
through F, sum_m |gamma_m|^2 |Q[m, k]|^2.  `evolve_gaussian` followed by
`momentum_occupations` is its oracle.
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
    """<c(k)^dag c(k)> on the k = 2 pi n / N grid, same convention as above.

    This is diag(F^T C conj(F)) with F = dft_matrix(N): the inverse FFT down
    the columns gives F^T C / sqrt(N), and the forward FFT along the rows
    multiplies by sqrt(N) conj(F) on the right, in O(N^2 log N).
    """
    return np.fft.fft(np.fft.ifft(corr, axis=0), axis=1).diagonal().real


# --------------------------------------------------------------------------
# the chain's band and the coupled system-environment transfer
# --------------------------------------------------------------------------

def chain_bonds(n: int) -> range:
    """Nearest-neighbour bonds (j, j+1 mod n) of the periodic chain; two sites
    share a single bond, so `band_energies` halves there."""
    return range(n if n > 2 else n - 1)


def band_energies(num_sites: int, nu: float) -> np.ndarray:
    """Levels of the system hopping H_s at k = 2 pi m / N, in m order, in
    closed form: each of the `chain_bonds` adds nu (e^{ik} + e^{-ik}) / N, so
    2 nu cos k for N >= 3 and, with the one bond of N = 2, nu cos k."""
    ks = 2 * np.pi * np.arange(num_sites) / num_sites
    return (2 * len(chain_bonds(num_sites)) / num_sites) * nu * np.cos(ks)


def mode_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """The transfer T = exp(-i t h) of exp(+i H t): with the Hermitian
    eigendecomposition h = v diag(w) v^dag it is (v * e^{-i t w}) @ v^dag."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def coupled_transfer(levels: np.ndarray, epsilon: float, omega: float,
                     t: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis diagonals (beta, gamma) of the transfer blocks T_se and T_ee
    of exp(-i t h(omega)), for the system levels lambda = `levels` (see the
    module docstring).  s = sin(r t) / r is t sinc(r t / pi), finite at r = 0."""
    e = epsilon / 2
    delta = (levels - omega) / 2
    r = np.hypot(delta, e)
    s = t * np.sinc(r * t / np.pi)
    g = np.exp(-0.5j * t * (levels + omega))
    return -1j * e * s * g, g * (np.cos(r * t) + 1j * delta * s)


def environment_occupations(q: np.ndarray, rho: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Momentum diagonal of T_se^T C conj(T_se), T_se = U diag(beta) U^T, for
    the momentum ensemble C of rho, read from Q = U^T F as in the module
    docstring.  W^T and W share one buffer, so numpy forms S = W^T W as a
    symmetric product: exactly symmetric, at about half the flops."""
    w = np.sqrt(beta)[:, None] * q
    s = w.T @ w
    return rho[-np.arange(len(rho)) % len(rho)] @ (s.real ** 2 + s.imag ** 2)

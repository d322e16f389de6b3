import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermispec import protocol, verify
from fermispec.circuits import Circuit, cx, x
from fermispec.fft import base_fft, fft_circuit
from fermispec.gaussian import (band_energies, coupled_transfer, dft_matrix,
                                environment_occupations, evolve_gaussian, extract_mode_transform,
                                mode_propagator, momentum_occupations,
                                state_from_momentum_occupations)
from fermispec import statevector as sv
from fermispec.sector import ParticleConservationError

from strategies import pc_circuits


# ------------------------------------------------------- extraction

def test_extract_identity():
    assert np.allclose(extract_mode_transform(Circuit(4, ())), np.eye(4))


def test_extract_f2_is_dft2():
    assert verify.fft_matches_dft([base_fft(2)], 1e-12)


def test_extract_compile9_is_dft9():
    assert verify.fft_matches_dft([fft_circuit(9, 3)], 1e-10)


def test_extract_rejects_non_conserving():
    with pytest.raises(ParticleConservationError):
        extract_mode_transform(Circuit(2, (cx(0, 1),)))
    with pytest.raises(ParticleConservationError):
        extract_mode_transform(Circuit(1, (x(0),)))


def test_extract_merges_conserving_runs():
    """Consecutive gates on the same qubits merge before the conservation check."""
    assert np.allclose(extract_mode_transform(Circuit(2, (cx(0, 1), cx(0, 1)))), np.eye(2))


@given(pc_circuits)
@settings(max_examples=40)
def test_cross_oracle_sector_vs_dense(c):
    """Sector transfer == transfer inferred from dense single-excitation runs."""
    n = c.num_qubits
    t = extract_mode_transform(c)
    s = np.zeros((n, n), dtype=complex)
    for j in range(n):
        bits = [0] * n
        bits[j] = 1
        out = sv.run_circuit(c, sv.basis_state(n, bits)).ravel()
        for ell in range(n):
            s[ell, j] = out[1 << (n - 1 - ell)]
    vac = sv.run_circuit(c, sv.zero_state(n)).ravel()[0]
    t_dense = vac * s.conj().T
    assert np.max(np.abs(t - t_dense)) < 1e-11


@given(pc_circuits)
@settings(max_examples=30)
def test_transfer_is_unitary(c):
    t = extract_mode_transform(c)
    assert np.max(np.abs(t.conj().T @ t - np.eye(c.num_qubits))) < 1e-10


def test_cross_oracle_twelve_qubits():
    """Deterministic 12-qubit case of the sector/dense cross-oracle check."""
    from fermispec.circuits import Circuit, cz, fswap, givens, rz, s, swap, z
    rng = np.random.default_rng(99)
    n = 12
    gates = []
    for _ in range(40):
        a, b = rng.choice(n, size=2, replace=False)
        pick = rng.integers(5)
        if pick == 0:
            gates.append(givens(float(rng.uniform(-3, 3)), int(a), int(b)))
        elif pick == 1:
            gates.append(cz(int(a), int(b)))
        elif pick == 2:
            gates.append(fswap(int(a), int(b)))
        elif pick == 3:
            gates.append(rz(float(rng.uniform(-3, 3)), int(a)))
        else:
            gates.append(s(int(a)))
    c = Circuit(n, tuple(gates))
    t = extract_mode_transform(c)
    s_mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        bits = [0] * n
        bits[j] = 1
        out = sv.run_circuit(c, sv.basis_state(n, bits)).ravel()
        for ell in range(n):
            s_mat[ell, j] = out[1 << (n - 1 - ell)]
    vac = sv.run_circuit(c, sv.zero_state(n)).ravel()[0]
    assert np.max(np.abs(t - vac * s_mat.conj().T)) < 1e-11


# ------------------------------------------------------- Gaussian states

def test_evolve_identity_and_vacuum():
    state = state_from_momentum_occupations(np.array([1.0, 0.0, 0.5]))
    out = evolve_gaussian(state, np.eye(3))
    assert np.allclose(out, state)
    vac = np.zeros((4, 4), dtype=complex)
    t = dft_matrix(4)
    assert np.max(np.abs(evolve_gaussian(vac, t))) < 1e-14


def test_single_mode_spread_by_dft():
    n = 6
    corr = np.zeros((n, n), dtype=complex)
    corr[2, 2] = 1.0
    out = evolve_gaussian(corr, dft_matrix(n))
    assert np.max(np.abs(out.diagonal().real - 1 / n)) < 1e-12


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve_gaussian(np.zeros((3, 3), dtype=complex), np.eye(4))
    with pytest.raises(ValueError):
        evolve_gaussian(np.zeros((3, 3), dtype=complex), np.ones(3))
    with pytest.raises(ValueError):
        evolve_gaussian(np.zeros((3, 3), dtype=complex), np.eye(4)[:, :3])


def _random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("cols", [slice(1, None, 2), slice(0, None, 2), [0, 3, 4], [5]])
def test_evolve_column_block_is_block_of_square(cols):
    """Evolving through columns S of T gives the (S, S) block of the square
    evolution."""
    rng = np.random.default_rng(5)
    corr = _random_hermitian(8, rng)
    t = mode_propagator(_random_hermitian(8, rng), 1.7)
    full = evolve_gaussian(corr, t)
    idx = np.arange(8)[cols]
    block = evolve_gaussian(corr, t[:, cols])
    assert block.shape == (len(idx), len(idx))
    assert np.max(np.abs(block - full[np.ix_(idx, idx)])) <= 1e-12


@pytest.mark.parametrize("rows", [slice(0, None, 2), slice(1, None, 2), slice(None), [5, 0, 3]])
@pytest.mark.parametrize("cols", [slice(0, None, 2), slice(1, None, 2), slice(None), [2, 7]])
@pytest.mark.parametrize("kind", ["coupled", "complex"])
def test_mode_propagator_block_matches_full(kind, rows, cols):
    """A block of the transfer, formed alone from rows of the eigenvectors as
    (v[rows] * e^{-i t w}) @ v[cols]^dag, equals that block of the full
    transfer, for a real coupled h and a complex h; the full transfer equals
    scipy's matrix exponential."""
    from scipy.linalg import expm
    h = (_coupled(4, 0.9, 0.3, 0.5) if kind == "coupled"
         else _random_hermitian(8, np.random.default_rng(8)))
    full = mode_propagator(h, 1.9)
    assert np.max(np.abs(full - expm(-1.9j * h))) <= 1e-12
    w, v = np.linalg.eigh(h)
    block = (v[rows] * np.exp(-1.9j * w)) @ v[cols].conj().T
    want = full[rows][:, cols]
    assert block.shape == want.shape
    assert np.max(np.abs(block - want)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 17, 50, 200])
def test_momentum_occupations_matches_three_operand_einsum(n):
    """The FFT readout equals the three-operand einsum diag(F^T C conj(F))."""
    corr = _random_hermitian(n, np.random.default_rng(n))
    f = dft_matrix(n)
    want = np.einsum("jk,jl,lk->k", f, corr, f.conj()).real
    assert np.max(np.abs(momentum_occupations(corr) - want)) <= 1e-12


def test_momentum_occupation_round_trip():
    rho = np.array([0.2, 0.9, 0.0, 1.0, 0.4])
    state = state_from_momentum_occupations(rho)
    assert np.max(np.abs(momentum_occupations(state) - rho)) < 1e-12


@given(st.integers(2, 8), st.data())
@settings(max_examples=30)
def test_purity_preserved(n, data):
    rho = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                      min_size=n, max_size=n)))
    state = state_from_momentum_occupations(rho)
    h = _hopping(n, 1.0)  # any Hermitian works
    t = mode_propagator(h, 1.3)
    c = evolve_gaussian(state, t)
    assert np.max(np.abs(c @ c - c)) < 1e-10
    assert np.max(np.abs(c - c.conj().T)) <= 1e-10
    w = np.linalg.eigvalsh(c)
    assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10


# ------------------------------------------------------- coupled Hamiltonian

def _hopping(n, nu):
    """The system hopping H_s: the chain's one-particle rendering at stride 1."""
    return protocol._one_particle(protocol.ProtocolConfig(n, 0.0, nu=nu), 1)


def _coupled(n, nu, eps, omega):
    """h(omega) over c_0, d_0, c_1, ...: the one-particle rendering at stride 2."""
    return protocol._one_particle(protocol.ProtocolConfig(n, eps, nu=nu), 2, omega)


def test_decoupled_blocks_at_zero_epsilon():
    h = _coupled(5, 1.0, 0.0, 0.8)
    t = mode_propagator(h, 2.0)
    assert np.max(np.abs(t[0::2, 1::2])) < 1e-12
    assert np.max(np.abs(t[1::2, 0::2])) < 1e-12


def test_two_mode_mixing_amplitude():
    # nu = 0: each (c_j, d_j) pair mixes with |a'|^2 = sin^2(t*Omega0) eps^2/(w^2+eps^2)
    eps, omega, t = 0.7, 0.4, 2.3
    h = _coupled(3, 0.0, eps, omega)
    tr = mode_propagator(h, t)
    omega0 = 0.5 * np.sqrt(omega ** 2 + eps ** 2)
    want = np.sin(t * omega0) ** 2 * eps ** 2 / (omega ** 2 + eps ** 2)
    for j in range(3):
        assert abs(abs(tr[2 * j, 2 * j + 1]) ** 2 - want) < 1e-12


def test_propagator_unitary():
    h = _coupled(4, 0.9, 0.3, 0.5)
    t = mode_propagator(h, 7.0)
    assert np.max(np.abs(t.conj().T @ t - np.eye(8))) < 1e-12


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("nu", [1.0, -0.7, 0.0])
def test_band_energies_are_momentum_diagonal_of_chain_hopping(n, nu):
    """band_energies(N, nu) is diag(F^dag H_s F) of the chain hopping H_s,
    the one-particle rendering of the chain's terms, read with dft_matrix; at
    N = 2 the one bond gives nu cos k."""
    f = dft_matrix(n)
    want = np.diagonal(f.conj().T @ _hopping(n, nu) @ f)
    assert np.max(np.abs(band_energies(n, nu) - want)) <= 1e-12


@pytest.mark.parametrize("n, nu, eps, omega, t", [
    (2, 0.8, 0.45, 0.3, 4.2),     # one bond
    (5, 0.0, 0.45, 0.7, 4.2),     # H_s = 0, fully degenerate
    (6, -1.0, -0.45, 1.0, 4.2),   # epsilon < 0, omega = 2 nu cos k at k = 2 pi / 3
    (4, 0.0, 0.0, 0.0, 2.0),      # r = 0 exactly
    (7, 0.9, 0.0, 0.4, 3.0),      # decoupled
    (9, 0.8, 0.45, 0.5, 0.0),     # t = 0
    (31, 1.3, 0.2, -1.1, 5.0),
])
def test_coupled_transfer_matches_mode_propagator(n, nu, eps, omega, t):
    """The one-particle rendering of h(omega) has the block form
    [[H_s, e I], [e I, omega I]] over the interleaved modes (e = eps / 2),
    and U diag(beta) U^T and U diag(gamma) U^T are the system-environment and
    environment-environment blocks of its dense 2N x 2N transfer."""
    h_s = _hopping(n, nu)
    h = _coupled(n, nu, eps, omega)
    c, d = 2 * np.arange(n), 2 * np.arange(n) + 1
    want = np.zeros((2 * n, 2 * n))
    want[0::2, 0::2] = h_s
    want[c, d] = want[d, c] = eps / 2
    want[d, d] = omega
    assert np.array_equal(h, want)
    levels, u = np.linalg.eigh(h_s)
    beta, gamma = coupled_transfer(levels, eps, omega, t)
    full = mode_propagator(h, t)
    assert np.max(np.abs((u * beta) @ u.T - full[0::2, 1::2])) <= 1e-12
    assert np.max(np.abs((u * gamma) @ u.T - full[1::2, 1::2])) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 8, 31])
@pytest.mark.parametrize("nu", [-1.0, 0.0, None])
@pytest.mark.parametrize("env", ["empty", "full"])
def test_eigenbasis_occupations_match_evolve_and_fft(n, nu, env):
    """The eigenbasis readout of a random momentum ensemble rho equals
    momentum_occupations(evolve_gaussian(C, T_se)) of its correlation C,
    with the filled environment's T_ee T_ee^dag added for the full filling;
    at a generic omega and on a resonance omega = lambda_m.  Even and odd N,
    where k -> -k fixes two momenta or one, check the rho_{-p} relabel, and
    rho is not even in k.  At nu = 0 every level is degenerate, so eigh's U
    is arbitrary; nu = None stands for a random real symmetric H_s, whose
    T_se, unlike the chain's, is not diagonal in k."""
    rng = np.random.default_rng(n)
    rho = rng.uniform(size=n)
    corr = state_from_momentum_occupations(rho)
    a = rng.normal(size=(n, n))
    h_s = _hopping(n, nu) if nu is not None else a + a.T
    levels, u = np.linalg.eigh(h_s)
    q = u.T @ dft_matrix(n)
    for omega in (0.37, levels[-1]):
        beta, gamma = coupled_transfer(levels, 0.45, omega, 5.0)
        env_corr = evolve_gaussian(corr, (u * beta) @ u.T)
        got = environment_occupations(q, rho, beta)
        if env == "full":
            env_corr += (u * np.abs(gamma) ** 2) @ u.T
            got += np.abs(gamma) ** 2 @ np.abs(q) ** 2
        assert np.max(np.abs(got - momentum_occupations(env_corr))) <= 1e-12, omega

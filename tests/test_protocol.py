import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from fermispec import protocol, sector, statevector as sv, verify
from fermispec.circuits import format_circuit
from fermispec.fft import fft_radix, ground_state_prep_circuit
from fermispec.gaussian import chain_hopping, coupled_hamiltonian
from fermispec.protocol import (DeltaLineSpectrum, Kernel, ProtocolConfig, SpectralGrid,
                                broadening_and_ghosts, compare_trotter, convolve_kernel,
                                dynamical_correlation_baseline,
                                environment_method_grid, least_squares_scale,
                                nk_exact_free, nk_gaussian,
                                reference_windowed_spectral,
                                run_circuit_protocol, strong_coupling_leading)

RNG = np.random.default_rng(11)
OMEGAS = np.linspace(-3, 3, 11)


def _cfg(**kw):
    base = dict(n_sites=8, epsilon=0.3, t=4.0, nu=1.0)
    base.update(kw)
    return ProtocolConfig(**base)


# ------------------------------------------------------------ closed forms

def test_exact_free_zero_coupling():
    cfg = _cfg(epsilon=0.0)
    assert np.max(np.abs(nk_exact_free(cfg, OMEGAS).values)) == 0.0


def test_exact_free_resonance():
    # at omega = 2 nu cos k the sample is sin^2(t eps / 2) * rho_k
    cfg = _cfg(n_sites=6, epsilon=0.4, t=3.0, initial_state=[1, 1, 0, 1, 0, 0])
    ks = cfg.momenta()
    for ik, k in enumerate(ks):
        grid = nk_exact_free(cfg, [2 * cfg.nu * np.cos(k)])
        want = np.sin(cfg.t * cfg.epsilon / 2) ** 2 * cfg.rho()[ik]
        assert abs(grid.values[ik, 0] - want) < 1e-12


def test_exact_free_rejects_interacting():
    with pytest.raises(ValueError):
        nk_exact_free(_cfg(interaction=2.0), OMEGAS)


def test_gaussian_matches_exact_both_fills():
    """Also at N = 2, whose one bond gives the band nu cos k."""
    rho = RNG.random(10)
    configs = [_cfg(n_sites=10, epsilon=0.45, t=4.2, nu=0.8, environment=env,
                    initial_state=rho) for env in ("empty", "full")]
    pairs = [_cfg(n_sites=2, epsilon=0.3, nu=nu, environment=env, initial_state=[0.7, 0.2])
             for nu in (1.0, -1.0) for env in ("empty", "full")]
    assert verify.gaussian_matches_closed_form(configs + pairs, OMEGAS, 1e-12)
    wrong = verify.grids_match(  # the Gaussian grid of the other filling
        nk_exact_free, lambda c, w: nk_gaussian(replace(c, environment="full"), w),
        configs[:1], OMEGAS, 1e-12, "max |closed form - Gaussian|")
    assert not wrong and "N=10, nu=0.8, empty environment" in wrong.detail


def _full_correlation_chain(config, omegas):
    """nk_gaussian as the full 2N x 2N evolution: diagonal-matrix initial
    state, square transfer from its own eigendecomposition, environment
    slice, three-operand einsum readout."""
    from fermispec.gaussian import coupled_hamiltonian, dft_matrix
    n = config.n_sites
    f = dft_matrix(n)
    corr0 = np.zeros((2 * n, 2 * n), dtype=complex)
    corr0[0::2, 0::2] = f.conj() @ np.diag(config.rho()) @ f.T
    if config.environment == "full":
        corr0[1::2, 1::2] = np.eye(n)
    vals = np.zeros((n, len(omegas)))
    for iw, om in enumerate(omegas):
        w, v = np.linalg.eigh(coupled_hamiltonian(n, config.nu, config.epsilon, om))
        t = (v * np.exp(-1j * config.t * w)) @ v.conj().T
        corr = (t.T @ corr0 @ t.conj())[1::2, 1::2]
        nk = np.einsum("jk,jl,lk->k", f, corr, f.conj()).real
        vals[:, iw] = nk if config.environment == "empty" else 1 - nk
    return vals


# (nu, epsilon, t): generic; nu = 0 (H_s = 0, fully degenerate); epsilon = 0,
# alone and with nu = 0 (r = 0 exactly at omega = 0); epsilon < 0; t = 0
_CHAIN_CASES = [(0.8, 0.45, 4.2), (0.0, 0.45, 4.2), (0.8, 0.0, 4.2), (0.0, 0.0, 4.2),
                (-1.0, -0.45, 4.2), (0.8, 0.45, 0.0)]


@pytest.mark.parametrize("n", [2, 3, 8, 31, 200])
def test_gaussian_matches_full_correlation_chain(n):
    """Every case of _CHAIN_CASES on OMEGAS plus each resonance
    omega = 2 nu cos k, in both fillings; at N = 200 the generic case on
    OMEGAS only."""
    rho = np.random.default_rng(n).random(n)
    for nu, eps, t in _CHAIN_CASES if n < 200 else _CHAIN_CASES[:1]:
        resonances = 2 * nu * np.cos(2 * np.pi * np.arange(n) / n) if n < 200 else []
        omegas = np.concatenate([OMEGAS, resonances])
        for env in ("empty", "full"):
            cfg = _cfg(n_sites=n, epsilon=eps, t=t, nu=nu, environment=env,
                       initial_state=rho)
            want = _full_correlation_chain(cfg, omegas)
            assert np.max(np.abs(nk_gaussian(cfg, omegas).values - want)) <= 1e-12, \
                (nu, eps, t, env)


@pytest.mark.parametrize("n_omegas", [1, 12])
def test_nk_gaussian_one_eigendecomposition_per_call(monkeypatch, n_omegas):
    """One nk_gaussian call diagonalizes the N x N system hopping once,
    whatever the number of omegas, in both fillings."""
    shapes = []
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    for env in ("empty", "full"):
        shapes.clear()
        nk_gaussian(_cfg(n_sites=9, environment=env), np.linspace(-3, 3, n_omegas))
        assert shapes == [(9, 9)], env


def test_nk_gaussian_memory_fails_fast(monkeypatch):
    """At N = 5000 the kernel's N x N arrays would exceed 1 GiB: the guard
    raises before the start state is built or H_s is diagonalized."""
    def forbidden(*args, **kwargs):
        raise AssertionError("allocating work called")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(protocol, "state_from_momentum_occupations", forbidden)
    for env in ("empty", "full"):
        with pytest.raises(ValueError, match=r"GiB \(limit 1 GiB\)"):
            nk_gaussian(ProtocolConfig(5000, 0.3, environment=env), [0.0])


def test_gaussian_t_zero():
    cfg = _cfg(t=0.0)
    assert np.max(np.abs(nk_gaussian(cfg, OMEGAS).values)) < 1e-14


def test_empty_full_hole_symmetry():
    """Empty-environment n(k) at rho equals full-environment 1-n(k) at 1-rho."""
    rho = RNG.random(8)
    cfg_e = _cfg(environment="empty", initial_state=rho)
    cfg_f = _cfg(environment="full", initial_state=1 - rho)
    a = nk_gaussian(cfg_e, OMEGAS)
    b = nk_gaussian(cfg_f, OMEGAS)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_samples_in_unit_interval():
    cfg = _cfg(epsilon=1.2, t=6.0)
    assert nk_gaussian(cfg, OMEGAS).in_unit_interval()


# ------------------------------------------------------------ kernel

def test_kernel_at_zero():
    assert abs(Kernel(3.0)(0.0) - 9 / 4) < 1e-14


def test_kernel_formula():
    kern = Kernel(2.5)
    w = 0.77
    assert abs(kern(w) - np.sin(w * 2.5 / 2) ** 2 / w ** 2) < 1e-14


def test_convolution_with_delta_line():
    cfg = _cfg(n_sites=4, initial_state=[1, 0, 0, 1])
    kern = Kernel(cfg.t)
    spectrum = DeltaLineSpectrum.free_particle(cfg)
    grid = convolve_kernel(spectrum, kern, [2 * cfg.nu])  # on resonance for k=0
    assert abs(grid.values[0, 0] - cfg.t ** 2 / 4) < 1e-12


def test_kernel_integral_grows_linearly_with_t():
    # integral of phi_hat over omega is pi t / 2, so a convolved delta line
    # integrates to weight * pi t / 2: linear growth of the integrated peak
    from scipy.integrate import simpson
    w = np.linspace(-80, 80, 200001)
    vals = {}
    for t in (2.0, 4.0):
        vals[t] = simpson(Kernel(t)(w), x=w)
        # tail beyond the window is ~ 2 * (1/2) / 80 = 1.25e-2 absolute
        assert abs(vals[t] - np.pi * t / 2) < 2e-2
    assert abs(vals[4.0] / vals[2.0] - 2.0) < 1e-2


def test_perturbative_kernel_match():
    cfg = _cfg(n_sites=8, epsilon=1e-3, t=5.0, initial_state=[1, 0, 1, 0, 1, 0, 0, 0])
    grid = nk_gaussian(cfg, OMEGAS)
    kern = convolve_kernel(DeltaLineSpectrum.free_particle(cfg), Kernel(cfg.t), OMEGAS)
    rel = np.max(np.abs(grid.values / cfg.epsilon ** 2 - kern.values)) / kern.values.max()
    assert rel < 1e-4  # O(eps^2) remainder


# ------------------------------------------------------------ broadening

def test_ghost_ratio_at_pi():
    assert broadening_and_ghosts(np.pi / 5, 5.0)["n"] == 1
    assert verify.ghost_ratio_matches(np.pi / 5, 5.0, 1 / 9, 1e-14)
    wrong = verify.ghost_ratio_matches(np.pi / 10, 5.0, 1 / 9, 1e-14)
    assert not wrong and "eps=0.314159, t=5" in wrong.detail


def test_broadening_eps_zero():
    out = broadening_and_ghosts(0.0, 4.0)
    assert abs(out["delta_omega"] - 2 * np.pi / 4.0) < 1e-14
    assert out["ratio_r"] == 0.0


@pytest.mark.parametrize("epsilon, t, name", [(np.nan, 5.0, "epsilon"), (0.5, np.nan, "t"),
                                             (0.5, np.inf, "t"), (-np.inf, 5.0, "epsilon")],
                         ids=["eps-nan", "t-nan", "t-inf", "eps-inf"])
def test_broadening_rejects_non_finite(epsilon, t, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        broadening_and_ghosts(epsilon, t)


@pytest.mark.parametrize("epsilon, t", [(1.0, 5.0), (7.0, 5.0), (0.4, 3.0), (np.pi / 5, 5.0),
                                        (2.0, 0.5)])
def test_broadening_even_in_epsilon(epsilon, t):
    """The grids depend on eps only through eps^2, and so do width, ratio and n."""
    assert broadening_and_ghosts(-epsilon, t) == broadening_and_ghosts(epsilon, t)


def test_first_zero_matches_formula():
    # first zero of the exact formula away from resonance sits at delta_omega
    eps, t = 0.5, 5.0
    out = broadening_and_ghosts(eps, t)
    delta = out["delta_omega"]
    f = eps ** 2 * np.sin(t / 2 * np.sqrt(eps ** 2 + delta ** 2)) ** 2 \
        / (eps ** 2 + delta ** 2)
    assert abs(f) < 1e-24
    assert abs(t / 2 * np.sqrt(eps ** 2 + delta ** 2) - out["n"] * np.pi) < 1e-12


# ------------------------------------------------------------ strong coupling

def test_strong_coupling_exact_at_nu_zero():
    rho = RNG.random(9)
    cfg = ProtocolConfig(9, epsilon=0.8, t=3.7, nu=0.0, initial_state=rho)
    assert verify.strong_coupling_exact([cfg, replace(cfg, environment="full")], OMEGAS, 1e-12)
    wrong = verify.strong_coupling_exact([replace(cfg, nu=1.0)], OMEGAS, 1e-12)
    assert not wrong and "N=9, nu=1" in wrong.detail


def test_strong_coupling_requires_free_fermions():
    with pytest.raises(ValueError, match="requires V = 0"):
        strong_coupling_leading(ProtocolConfig(4, 0.1, interaction=2.0), [0.0])


def test_strong_coupling_full_rabi():
    cfg = ProtocolConfig(4, epsilon=np.pi / 3.0, t=3.0, nu=0.0,
                         initial_state=[1, 0, 1, 0])
    grid = strong_coupling_leading(cfg, omegas=[0.0])
    assert np.allclose(grid.values[:, 0], [1, 0, 1, 0], atol=1e-12)


def test_strong_coupling_eps_to_zero():
    cfg = ProtocolConfig(4, epsilon=0.0, t=3.0, nu=0.0, initial_state=[1, 0, 1, 0])
    assert np.max(np.abs(strong_coupling_leading(cfg, omegas=OMEGAS).values)) == 0


def test_sum_rule_small_eps_t():
    # integral over omega of the nu=0 curve / eps^2 approaches (pi t / 2) rho
    from scipy.integrate import simpson
    eps, t = 1e-3, 0.8
    cfg = ProtocolConfig(4, epsilon=eps, t=t, nu=0.0, initial_state=[1, 0, 0, 0])
    w = np.linspace(-2000, 2000, 400001)
    curve = strong_coupling_leading(cfg, omegas=w).values[0]
    val = simpson(curve, x=w) + eps ** 2 / 2000  # analytic tail estimate
    assert abs(val / eps ** 2 - np.pi * t / 2) < 1e-3 * np.pi * t / 2


# ------------------------------------------------------------ circuit protocol

def test_circuit_protocol_converges_to_gaussian():
    rho = [1.0, 0.0, 1.0, 0.0]
    omegas = [0.0, 0.9, -1.4]
    for env in ("empty", "full"):
        ref = nk_gaussian(_cfg(n_sites=4, t=3.0, environment=env,
                               initial_state=rho), omegas)
        got = run_circuit_protocol(_cfg(n_sites=4, t=3.0, trotter_steps=256,
                                        environment=env, initial_state=rho), omegas)
        assert np.max(np.abs(got.values - ref.values)) < 1e-4
        assert got.in_unit_interval()


def test_circuit_protocol_momentum_orientation():
    """An asymmetric filling pins the k labeling end to end.

    Only k = pi/2 (index 1 of 4) is occupied; its conjugate -pi/2 (index 3)
    is empty, so a transposed readout would land on the wrong row.
    """
    rho = [0.0, 1.0, 0.0, 0.0]
    omegas = [0.0]
    ref = nk_gaussian(_cfg(n_sites=4, t=3.0, initial_state=rho), omegas)
    got = run_circuit_protocol(_cfg(n_sites=4, t=3.0, trotter_steps=128,
                                    initial_state=rho), omegas)
    assert np.max(np.abs(got.values - ref.values)) < 1e-3
    assert got.values[1, 0] > 10 * got.values[3, 0]


def test_trotter_step_term_identities():
    """Each term of the Trotter step, rendered as gates, equals the exponential
    of its Hamiltonian term up to the global phase its decomposition drops:
    the hopping and coupling hops, the interaction and the environment's
    onsite terms."""
    from scipy.linalg import expm
    from fermispec.circuits import Circuit

    n = 3  # 6 qubits total, wrap bond crosses four interposers
    dt = 0.37
    cfg = ProtocolConfig(n, 0.9, nu=0.8, interaction=2.3)
    ops = [sv.annihilation_operator(2 * n, q) for q in range(2 * n)]
    num = [a.conj().T @ a for a in ops]
    dense = {"hop": lambda p, q: ops[p].conj().T @ ops[q] + ops[q].conj().T @ ops[p],
             "nn": lambda p, q: num[p] @ num[q],
             "onsite": lambda q: num[q]}
    # the decompositions drop exp(i c dt / 4) (nn) and exp(i c dt / 2) (onsite)
    dropped = {"hop": 0.0, "nn": 0.25, "onsite": 0.5}
    terms = list(protocol._terms(cfg, 2, omega=0.7))
    assert [kind for kind, _, _ in terms] == ["hop"] * n + ["nn"] * n + ["hop"] * n + ["onsite"] * n
    for kind, qubits, c in terms:
        want = expm(1j * dt * c * dense[kind](*qubits))
        got = sv.circuit_unitary(Circuit(2 * n, tuple(protocol._term_gates(kind, qubits, c, dt))))
        phase = np.exp(1j * dropped[kind] * c * dt)
        assert np.max(np.abs(want - phase * got)) < 1e-12, (kind, qubits)


# sha256 of format_circuit for (Trotter step, system-only step, readout); the
# steps hash V in {0, 2.3} x omega in {0, 0.7}, the system-only step also both
# signs of dt.  Any change to a gate, its qubits or its angle changes a digest.
CIRCUIT_DIGESTS = {
    2: ("8441bff54ad23d47a6dbcaf5300a8c0d929c9524f719aca58c6e5cfad085b79c",
        "0e876be6ec11e8f02889df990c535fcc8b11856a9c8f4e5909b23aba0eee131b",
        "c139df1b9f71b082989e9fa762591f49a5e75aebb4c9d88de77f4c6da1d0a777"),
    3: ("2b70627d58cfb86fe9a58138011d161184c141a53fb83814b64e8cd0f1408d9b",
        "a0a0f576fc374600a6c4a5e895481a36c707c51a4a47fd7f9e7c8d62c91ce5aa",
        "7b973d87ec042955c4d7d652b89e074e6b432527aa49e9c865f5c92a3c892bfe"),
    4: ("2095b96c219dafc040c3df92ca34b4b0ad8b236e4e0982981de769a9fd52378a",
        "e94f2eeb1ff54a48beb9f29fdd40b8a97f9ca68cc9ada014579c996a3269ff54",
        "13e3102feeaca39a4362fae7524495a2532b69401888b4af16bc2d6205a76799"),
    8: ("8f3695783e0273fa74a20095529bc58ed1aa9d537efe7a9f7bfa868dbe1be160",
        "598046e6da2a236b12b2fc7a35164b085fc68fa52c5ccac8f000bd53a1bf8531",
        "ece98a17c73804d7f7f12c350fbddf85c0ef69fcd05287f4cd3fba3c301d9c0b"),
    9: ("c559fdd7329e62ca1e5c126e5e072387047552d877a64f5c80f43fa57b2b6b2d",
        "3ecf58809228368489b1b4d1493b5a3ac5442fd62043c78acefbea1063c63739",
        "a7c427b5c6c969b08cf6e27f80b0ff408c5e445a29b470ca12823d805d6646b4"),
}


@pytest.mark.parametrize("n", sorted(CIRCUIT_DIGESTS))
def test_emitted_circuits_pinned(n):
    dt = 0.37
    step, system = hashlib.sha256(), hashlib.sha256()
    for V in (0.0, 2.3):
        for omega in (0.0, 0.7):
            cfg = ProtocolConfig(n, 0.3, nu=0.8, interaction=V)
            step.update(format_circuit(protocol.trotter_step_circuit(cfg, dt, omega)).encode())
            for sign in (1, -1):
                system.update(format_circuit(protocol._system_step(cfg, sign * dt)).encode())
    readout = hashlib.sha256(format_circuit(protocol._readout_circuit(n)).encode())
    assert (step.hexdigest(), system.hexdigest(), readout.hexdigest()) == CIRCUIT_DIGESTS[n]


def _random_full_basis_state(n_qubits, seed):
    """Normalized random vector over the full basis of n_qubits qubits."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9])
def test_fused_step_matches_gates(n):
    """The Trotter step compiled to a sector program (merged blocks, fused
    diagonals) equals trotter_step_circuit on the gate-level kernel; N >= 3
    includes the wrap bond's JW string over 2N - 3 qubits."""
    basis = sector.Basis(2 * n)
    psi = _random_full_basis_state(2 * n, seed=n)
    cases = [((protocol.trotter_step_circuit(
        ProtocolConfig(n, 0.3, nu=0.8, interaction=V), 0.37, omega),), basis, psi)
        for V in (0.0, 2.3) for omega in (0.0, 0.7)]
    assert verify.sector_matches_gates(cases, 1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9])
def test_fused_readout_matches_gates(n, monkeypatch):
    """The readout compiled to a sector program, its FSWAP runs fused into
    signed permutations, equals _readout_circuit on the gate-level kernel;
    a program compiled without the readout's last gate does not."""
    psi = _random_full_basis_state(2 * n, seed=100 + n)
    cases = [((protocol._readout_circuit(n),), sector.Basis(2 * n), psi)]
    assert verify.sector_matches_gates(cases, 1e-12)
    compile_circuit = sector.compile_circuit
    monkeypatch.setattr(sector, "compile_circuit",
                        lambda c, basis: compile_circuit(replace(c, gates=c.gates[:-1]), basis))
    wrong = verify.sector_matches_gates(cases, 1e-12)
    assert not wrong and f"case 0 ({4 ** n} of {4 ** n} states)" in wrong.detail


@pytest.mark.parametrize("n", [3, 4])
def test_sector_hop_terms_match_jw_exponential(n):
    """Each hop of the Trotter step (hopping bonds and couplings), compiled on
    every particle-number sector, equals exp(i dt c (a_p^dag a_q + h.c.))
    restricted to that sector.  With one particle the CZ string acts
    trivially; from two particles on it carries the JW sign, so a wrong
    string fails only there."""
    from scipy.linalg import expm
    from fermispec.circuits import Circuit
    dt = 0.37
    ops = [sv.annihilation_operator(2 * n, q) for q in range(2 * n)]
    hops = [(qubits, c) for kind, qubits, c in protocol._terms(ProtocolConfig(n, 0.3, nu=0.8), 2)
            if kind == "hop"]
    assert len(hops) == len(protocol.chain_bonds(n)) + n
    for (p, q), c in hops:
        want = expm(1j * dt * c * (ops[p].conj().T @ ops[q] + ops[q].conj().T @ ops[p]))
        circuit = Circuit(2 * n, tuple(protocol._term_gates("hop", (p, q), c, dt)))
        for k in range(2 * n + 1):
            basis = sector.Basis(2 * n, [k])
            program = sector.compile_circuit(circuit, basis)
            got = sector.run_program(program, np.eye(len(basis), dtype=complex))
            assert np.max(np.abs(got - want[np.ix_(basis.bits, basis.bits)])) < 1e-12, (p, q, k)


def _jw_system_hamiltonian(config, stride=1):
    """H_sys from dense kron-built JW operators: the oracle of the bit-built
    one; at stride 2, on the 2N register with the coupling, H at omega = 0."""
    n = config.n_sites
    ops = [sv.annihilation_operator(stride * n, q) for q in range(stride * n)]
    h = np.zeros((2 ** (stride * n),) * 2, dtype=complex)
    for j in protocol.chain_bonds(n):
        a, b = stride * j, stride * ((j + 1) % n)
        h += config.nu * (ops[a].conj().T @ ops[b] + ops[b].conj().T @ ops[a])
        if config.interaction != 0:
            h += config.interaction * (ops[a].conj().T @ ops[a] @ ops[b].conj().T @ ops[b])
    if stride == 2:
        for c, d in zip(ops[0::2], ops[1::2]):
            h += config.epsilon / 2 * (c.conj().T @ d + d.conj().T @ c)
    return h


@pytest.mark.parametrize("n", range(2, 10))
def test_system_hamiltonian_bit_built_equals_jw_operators(n):
    """H_sys built on the full basis is the JW-operator sum exactly, and on
    each particle-number sector exactly its block."""
    for nu, V in ((1.0, 0.0), (-1.0, 4.0), (0.8, 2.3), (0.3, -0.7), (0.0, 0.1)):
        cfg = ProtocolConfig(n, 0.1, nu=nu, interaction=V)
        dense = _jw_system_hamiltonian(cfg)
        assert np.array_equal(protocol._system_hamiltonian(cfg, sector.Basis(n)), dense), (nu, V)
        for k in range(n + 1):
            bits = sector.Basis(n, [k]).bits
            assert np.array_equal(protocol._system_hamiltonian(cfg, sector.Basis(n, [k])),
                                  dense[np.ix_(bits, bits)]), (nu, V, k)


@pytest.mark.parametrize("n", range(2, 10))
def test_system_hamiltonian_renders_single_particle_matrices(n):
    """The one-particle block of the bit-built Hamiltonian, in qubit order
    (reversed rank), is `chain_hopping` on the N system qubits and
    `coupled_hamiltonian` at omega = 0 on the 2N register; on the full 2N
    basis (N <= 4) it is the dense JW H at omega = 0."""
    for nu, eps, V in ((0.8, 0.3, 2.3), (-1.0, 1.7, 0.0)):
        cfg = ProtocolConfig(n, eps, nu=nu, interaction=V)
        for stride, want in ((1, chain_hopping(n, nu)),
                             (2, coupled_hamiltonian(n, nu, eps, 0.0))):
            block = protocol._system_hamiltonian(cfg, sector.Basis(stride * n, [1]))
            assert np.array_equal(block[::-1, ::-1], want), (nu, eps, V, stride)
        if n <= 4:
            assert np.array_equal(protocol._system_hamiltonian(cfg, sector.Basis(2 * n)),
                                  _jw_system_hamiltonian(cfg, 2)), (nu, eps, V)


def _embed_sector_state(n, state):
    """A system state (n0, amplitudes over sector.Basis(n, [n0])) over the
    full 2**n basis."""
    n0, amps = state
    psi = np.zeros(2 ** n, dtype=complex)
    psi[sector.Basis(n, [n0]).bits] = amps
    return psi


def _dense_system_state(config):
    """The system start state over the full 2**N basis: a free chain of
    N = 2**k or 3**k from the prep circuit on the gate-level kernel, any
    other chain from `_system_state`, embedded."""
    n = config.n_sites
    if config.interaction == 0 and fft_radix(n):
        filled = np.flatnonzero(config.rho() > 0.5)
        return sv.run_circuit(ground_state_prep_circuit(n, filled)).ravel()
    return _embed_sector_state(n, protocol._system_state(config))


def _dense_state_from_filled(n, rho):
    """prod_k c^dag(k) |0> over the filled momenta, the lowest k applied first,
    from dense momentum_annihilation products."""
    psi = sv.zero_state(n).ravel()
    for m in np.flatnonzero(np.asarray(rho) > 0.5):
        psi = sv.momentum_annihilation(n, 2 * np.pi * m / n).conj().T @ psi
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("n", [5, 6, 7, 10])
def test_state_from_filled_matches_dense_creation_products(n):
    """The free start state of an N without an FFT radix, built with
    sector.create, equals the dense creation-operator products."""
    rng = np.random.default_rng(n)
    fillings = [np.zeros(n), np.ones(n), _cfg(n_sites=n).rho(), _cfg(n_sites=n, nu=-1.0).rho(),
                *(rng.integers(0, 2, n).astype(float) for _ in range(2))]
    for rho in fillings:
        got = _embed_sector_state(n, protocol._state_from_filled(n, np.flatnonzero(rho > 0.5)))
        assert np.max(np.abs(got - _dense_state_from_filled(n, rho))) <= 1e-14, rho


def test_one_system_spectrum_per_call(monkeypatch):
    """The interacting ground state and the reference come from one
    `_system_spectrum`, one eigh per particle-number sector, per call."""
    calls = {"eigh": 0, "spectrum": 0}
    eigh, spectrum = np.linalg.eigh, protocol._system_spectrum

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_spectrum(*args, **kwargs):
        calls["spectrum"] += 1
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(protocol, "_system_spectrum", counted_spectrum)
    cfg = _cfg(n_sites=4, t=2.0, nu=-1.0, interaction=2.3, trotter_steps=2)
    omegas = [0.0, 1.0]
    runs = {"environment_method_grid": lambda: environment_method_grid(cfg, omegas),
            "reference_windowed_spectral": lambda: reference_windowed_spectral(cfg, omegas),
            "continuous-time baseline": lambda: dynamical_correlation_baseline(
                replace(cfg, trotter_steps=0), omegas),
            "Trotterized baseline": lambda: dynamical_correlation_baseline(cfg, omegas)}
    for name, run in runs.items():
        calls.update(eigh=0, spectrum=0)
        run()
        assert calls == {"eigh": 5, "spectrum": 1}, name
    # one spectrum serves the reference and every step count's two grids
    calls.update(eigh=0, spectrum=0)
    compare_trotter(cfg, omegas, [1, 2])
    assert calls == {"eigh": 5, "spectrum": 1}


def _counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends each call's first
    argument to calls[name]."""
    original = getattr(module, name)
    calls[name] = []

    def counted(*args, **kwargs):
        calls[name].append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_one_sector_start_and_readout_per_compare_trotter(monkeypatch):
    """compare_trotter builds the environment basis and start vector, and
    compiles the readout, once for all its step counts."""
    calls = {}
    for module, name in ((protocol, "_sector_start"), (sector, "compile_circuit")):
        _counting(monkeypatch, module, name, calls)
    cfg = _cfg(n_sites=4, t=2.0, nu=-1.0, interaction=2.3)
    compare_trotter(cfg, [0.0, 1.0], [1, 2, 4])
    assert len(calls["_sector_start"]) == 1
    readout = protocol._readout_circuit(4)
    assert sum(c == readout for c in calls["compile_circuit"]) == 1


def test_compare_trotter_grids_equal_environment_method_grid(monkeypatch):
    """compare_trotter runs the environment method once for every step
    count, and each count's grid is, bit for bit, environment_method_grid
    at that step count."""
    calls, grids = {}, []
    _counting(monkeypatch, protocol, "_run_trotter", calls)
    environment_grid = protocol._environment_grid

    def kept(*args):
        grids.append(environment_grid(*args))
        return grids[-1]

    monkeypatch.setattr(protocol, "_environment_grid", kept)
    cfg = _cfg(n_sites=4, t=2.0, nu=-1.0, interaction=2.3)
    omegas = [0.0, 0.7, -1.3]
    counts = [1, 2, 4]
    compare_trotter(cfg, omegas, counts)
    assert len(calls["_run_trotter"]) == 1 and len(grids) == len(counts)
    for steps, grid in zip(counts, grids):
        want = environment_method_grid(replace(cfg, trotter_steps=steps), omegas)
        assert np.array_equal(grid.values, want.values), steps
        assert grid.meta == want.meta, steps


def test_compare_trotter_rejects_step_counts_before_any_work(monkeypatch):
    """A step count that is not an integer >= 1 raises before H_sys is
    diagonalized."""
    def forbidden(*args, **kwargs):
        raise AssertionError("spectrum taken")

    monkeypatch.setattr(protocol, "_system_spectrum", forbidden)
    cfg = _cfg(n_sites=4, nu=-1.0, interaction=2.3)
    for step_counts in ([0], [2, 0], [-1], [1.0], [True], [], 3):
        with pytest.raises(ValueError, match="step_counts must be positive integers"):
            compare_trotter(cfg, [0.0], step_counts)


def test_trotterized_baseline_evolves_each_column_once(monkeypatch):
    """psi0, c(k) psi0 and c^dag(k) psi0 for every k step as one batch: one
    step program per time point off v = 0."""
    batches = []
    run_program = protocol.sector.run_program

    def counted(program, state):
        batches.append(state.shape[-1])
        return run_program(program, state)

    monkeypatch.setattr(protocol.sector, "run_program", counted)
    cfg = _cfg(n_sites=8, t=2.0, nu=-1.0, interaction=2.3, trotter_steps=3)
    dynamical_correlation_baseline(cfg, [0.0, 1.0])
    assert batches == [2 * 8 + 1] * (2 * 3)


def test_dense_operator_memory_fails_fast(monkeypatch):
    """A gapped interacting N = 12 reference runs in its number sectors, and
    N = 14 passes the spectrum guard.  At N = 15 the sectors' eigenvectors
    would exceed 1 GiB: the guard raises before any eigh, for the reference
    and for the ground state the Trotterized baseline starts from.  A free
    N = 16 chain at 32 steps needs no spectrum, but its baseline's time-point
    batches would exceed 1 GiB; at N = 27 they are sized before the free
    start state is built."""
    cfg = _cfg(n_sites=12, epsilon=0.1, t=2.0, nu=-3.0, interaction=4.0)
    assert np.isfinite(reference_windowed_spectral(cfg, OMEGAS).values).all()

    def forbidden(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    with pytest.raises(AssertionError, match="eigh called"):
        protocol._system_spectrum(replace(cfg, n_sites=14))
    big = replace(cfg, n_sites=15)
    for run in (lambda: protocol.lehmann_lines(big),
                lambda: dynamical_correlation_baseline(replace(big, trotter_steps=2), OMEGAS),
                lambda: dynamical_correlation_baseline(
                    _cfg(n_sites=16, trotter_steps=32), OMEGAS),
                # sized before the free start state over Basis(27, [14]), 20 M states
                lambda: dynamical_correlation_baseline(
                    ProtocolConfig(27, 0.3, nu=-1.0, trotter_steps=2), [0.0])):
        with pytest.raises(ValueError, match=r"GiB \(limit 1 GiB\)"):
            run()


def test_protocol_runs_without_dense_statevector(monkeypatch):
    """compare_trotter, both baselines and the environment grid, interacting
    and free, build no dense state and no dense JW operator."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense statevector path")

    for name in ("run_circuit", "zero_state", "momentum_annihilation", "annihilation_operator"):
        monkeypatch.setattr(sv, name, forbidden)
    cfg = _cfg(n_sites=8, epsilon=0.1, t=2.0, nu=-1.0, interaction=4.0, trotter_steps=2)
    omegas = [0.0, 1.0]
    compare_trotter(cfg, omegas, [1, 2])
    for c in (cfg, replace(cfg, interaction=0.0)):
        environment_method_grid(c, omegas)
        dynamical_correlation_baseline(c, omegas)
        dynamical_correlation_baseline(replace(c, trotter_steps=0), omegas)


def test_circuit_protocol_positivity_under_coarse_steps():
    for steps in (1, 2, 5):
        cfg = _cfg(n_sites=4, t=5.0, trotter_steps=steps, interaction=3.0, nu=-1.0)
        grid = run_circuit_protocol(cfg, [0.0, 1.0])
        assert grid.in_unit_interval()


def test_circuit_protocol_size_guards():
    with pytest.raises(ValueError, match=r"GiB \(limit 1 GiB\)"):
        run_circuit_protocol(_cfg(n_sites=16, trotter_steps=2), [0.0])
    with pytest.raises(ValueError):
        run_circuit_protocol(_cfg(n_sites=4), [0.0])  # steps = 0
    for run in (run_circuit_protocol, environment_method_grid):
        with pytest.raises(ValueError, match=r"n_sites = 2\*\*k or 3\*\*k"):
            run(_cfg(n_sites=6, trotter_steps=2), [0.0])


def test_circuit_envelope_checked_before_any_work(monkeypatch):
    """Step counts, the FFFT radix and the register's sector size are checked
    before H_sys is diagonalized, before the system start state is built and
    before any 2N-qubit basis is built.  The free N = 16 ground state fills 8
    modes, C(32, 8) = 10.5 M register states; the free N = 27 ground state
    fills 14, and its own system sector holds 20 M states; a full environment
    at N = 27 over 2 particles holds C(54, 29)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("spectrum or start state taken")

    basis = sector.Basis

    def system_basis_only(num_qubits, particle_numbers=None):
        assert num_qubits <= 27, "register basis built"
        return basis(num_qubits, particle_numbers)

    monkeypatch.setattr(protocol, "_system_spectrum", forbidden)
    monkeypatch.setattr(protocol, "_system_state", forbidden)
    monkeypatch.setattr(protocol.sector, "Basis", system_basis_only)
    interacting = ProtocolConfig(12, 0.1, nu=-3.0, interaction=4.0, trotter_steps=2)
    rho = np.zeros(27)
    rho[[1, 5]] = 1
    cases = [
        (lambda: compare_trotter(interacting, [0.0, 1.0], [2]), r"n_sites = 2\*\*k or 3\*\*k"),
        (lambda: environment_method_grid(interacting, [0.0]), r"n_sites = 2\*\*k or 3\*\*k"),
        (lambda: run_circuit_protocol(interacting, [0.0]), r"n_sites = 2\*\*k or 3\*\*k"),
        (lambda: run_circuit_protocol(replace(interacting, n_sites=8, trotter_steps=0), [0.0]),
         "trotter_steps >= 1"),
        (lambda: run_circuit_protocol(_cfg(n_sites=16, trotter_steps=2), [0.0]),
         r"GiB \(limit 1 GiB\)"),
        (lambda: run_circuit_protocol(_cfg(n_sites=27, trotter_steps=2), [0.0]),
         r"GiB \(limit 1 GiB\)"),
        (lambda: environment_method_grid(_cfg(n_sites=27, trotter_steps=2, initial_state=rho),
                                         [0.0]), r"GiB \(limit 1 GiB\)"),
    ]
    for run, match in cases:
        with pytest.raises(ValueError, match=match):
            run()


@pytest.mark.parametrize("n, tol", [(27, 6e-4), (32, 3e-4), (81, 1.5e-4)])
def test_circuit_protocol_at_paper_scale(n, tol):
    """The emitted step and readout circuits on 2N = 54, 64 and 162 qubits, in
    the 2-particle and 2-hole sectors, against the Gaussian grid at 64 steps
    (the battery's circuit-vs-gaussian-54-qubits row at N = 27)."""
    assert verify.grids_match(nk_gaussian, run_circuit_protocol, verify.two_mode_configs(n, 64),
                              np.linspace(-2, 2, 5), tol, "max |Gaussian - circuit|")


def test_sector_start_at_64_qubits():
    """From N = 32 the register's bitstrings are Python ints and site 0 sits
    on bit 63: the start states of 2 particles in an empty environment and of
    2 holes in a full one spread the system bits without overflow."""
    n = 32
    odd = sum(1 << (2 * n - 2 - 2 * j) for j in range(n))
    for cfg in verify.two_mode_configs(n, 1):
        n0, amps = protocol._system_state(cfg)
        basis, start, _ = protocol._sector_start(cfg, (cfg.environment,), (n0, amps))
        assert basis.bits.dtype == object and len(basis) == 2016
        for b, a in zip(sector.Basis(n, [n0]).bits, amps):
            sites = [j for j in range(n) if int(b) >> (n - 1 - j) & 1]
            at = sum(1 << (2 * n - 1 - 2 * j) for j in sites)
            if cfg.environment == "full":
                at, a = at | odd, a * (-1) ** sum((n - j) % 2 for j in sites)
            assert start[np.searchsorted(basis.bits, at)] == a
        assert np.count_nonzero(start) == np.count_nonzero(amps)


def test_shot_sampling_deterministic():
    cfg = _cfg(n_sites=2, t=2.0, trotter_steps=8, initial_state=[1, 0])
    a = run_circuit_protocol(cfg, [0.5], shots=200, seed=42)
    b = run_circuit_protocol(cfg, [0.5], shots=200, seed=42)
    assert np.array_equal(a.values, b.values)
    exact = run_circuit_protocol(cfg, [0.5])
    assert np.max(np.abs(a.values - exact.values)) < 0.2


def test_shot_sampling_over_several_omegas():
    """One generator serves the omegas in order: the first omega's samples do
    not depend on the omegas after it."""
    cfg = _cfg(n_sites=2, t=2.0, trotter_steps=8, initial_state=[1, 0])
    both = run_circuit_protocol(cfg, [0.5, 1.5], shots=200, seed=42)
    first = run_circuit_protocol(cfg, [0.5], shots=200, seed=42)
    assert np.array_equal(both.values[:, :1], first.values)
    exact = run_circuit_protocol(cfg, [0.5, 1.5])
    assert np.max(np.abs(both.values - exact.values)) < 0.2


# sha256 of run_circuit_protocol(...).values at 500 shots, seed 7, per filling
SHOT_DIGESTS = {"empty": "43affea9b18fe8ccdfa11b6e724f63ecf150d3c3f9062c88e8ef47f6c28374a6",
                "full": "66735b80a18a7f8804965be47acc31a2d1131c1953cda95b50f8bad9ee521698"}


@pytest.mark.parametrize("environment", sorted(SHOT_DIGESTS))
def test_shot_samples_pinned(environment):
    """Seeded samples of an interacting chain, byte for byte."""
    cfg = _cfg(n_sites=4, t=2.0, nu=-1.0, interaction=2.3, trotter_steps=3,
               environment=environment)
    grid = run_circuit_protocol(cfg, [0.0, 0.7, -1.3], shots=500, seed=7)
    assert hashlib.sha256(grid.values.tobytes()).hexdigest() == SHOT_DIGESTS[environment]


# ------------------------------------------------------------ baseline

def test_baseline_free_exact_matches_kernel():
    cfg = _cfg(n_sites=6, epsilon=0.0, t=5.0,
               initial_state=[1, 0, 1, 0, 0, 1])
    base = dynamical_correlation_baseline(cfg, OMEGAS)
    kern = Kernel(cfg.t)
    plus = convolve_kernel(DeltaLineSpectrum.free_particle(cfg), kern, OMEGAS)
    minus = convolve_kernel(DeltaLineSpectrum.free_hole(cfg), kern, OMEGAS)
    assert np.max(np.abs(base.values - plus.values - minus.values)) < 1e-6


def test_baseline_single_filled_mode_peak():
    n = 6
    rho = [0, 0, 1, 0, 0, 0]
    cfg = _cfg(n_sites=n, epsilon=0.0, t=5.0, initial_state=rho)
    k2 = 2 * np.pi * 2 / n
    peak_omega = 2 * cfg.nu * np.cos(k2)
    scan = np.linspace(peak_omega - 1.5, peak_omega + 1.5, 61)
    base, plus, _ = dynamical_correlation_baseline(cfg, scan, return_parts=True)
    assert abs(scan[np.argmax(plus.values[2])] - peak_omega) < 0.026


def _eigenbasis_baseline(config, omegas):
    """Plus and minus grids of the continuous-time baseline by propagation in
    the eigenbasis of H_sys: psi(v) = e^{-iHv} psi0 and
    S+(k,v) = <psi(v)| c^dag(k) |[c(k) psi](v)>,
    S-(k,v) = <[c^dag(k) psi](v)| c^dag(k) |psi(v)>
    on the baseline's 1601-point grid, then its window, Simpson weights and
    Fourier transform."""
    w, vmat = np.linalg.eigh(protocol._system_hamiltonian(config, sector.Basis(config.n_sites)))
    psi0 = _dense_system_state(config)
    vgrid = np.linspace(-config.t, config.t, 1601)
    ph = np.exp(-1j * np.outer(w, vgrid))
    splus, sminus = [], []
    for kk in config.momenta():
        ck = sv.momentum_annihilation(config.n_sites, kk)
        cdag_eig = vmat.conj().T @ ck.conj().T @ vmat
        a0, a1, a2 = (ph * (vmat.conj().T @ col)[:, None]
                      for col in (psi0, ck @ psi0, ck.conj().T @ psi0))
        splus.append(np.sum(a0.conj() * (cdag_eig @ a1), axis=0))
        sminus.append(np.sum(a2.conj() * (cdag_eig @ a0), axis=0))
    weights = (config.t - np.abs(vgrid)) / 4 * protocol._simpson_weights(vgrid)
    phase = np.exp(-1j * np.outer(omegas, vgrid))
    return [((np.array(s) * weights) @ phase.T).real for s in (splus, sminus)]


@pytest.mark.parametrize("n, V", [(4, 2.3), (6, 1.0), (8, 4.0)])
def test_continuous_baseline_matches_eigenbasis_propagation(n, V):
    """The trotter_steps = 0 baseline sums the Lehmann lines; propagating the
    correlators in the eigenbasis gives the same grids, for an explicit free
    filling and for an interacting ground state (nu = -1: gaps 0.84, 0.37
    and 0.67)."""
    filling = [1.0 if j % 3 == 0 else 0.0 for j in range(n)]
    for cfg in (_cfg(n_sites=n, t=4.0, nu=0.8, initial_state=filling),
                _cfg(n_sites=n, epsilon=0.1, t=5.0, nu=-1.0, interaction=V)):
        grid, plus, minus = dynamical_correlation_baseline(cfg, OMEGAS, return_parts=True)
        want_plus, want_minus = _eigenbasis_baseline(cfg, OMEGAS)
        assert np.max(np.abs(plus.values - want_plus)) < 1e-12, cfg
        assert np.max(np.abs(minus.values - want_minus)) < 1e-12, cfg
        assert np.max(np.abs(grid.values - want_plus - want_minus)) < 1e-12, cfg
        assert grid.meta["time_points"] == 1601


def test_baseline_trotterized_can_go_negative():
    cfg = _cfg(n_sites=8, epsilon=0.1, t=5.0, nu=-1.0, interaction=4.0,
               trotter_steps=2, initial_state="ground")
    grid = dynamical_correlation_baseline(cfg, OMEGAS)
    assert grid.meta["negative_samples"] > 0


def _dense_trotterized_baseline(config, omegas):
    """Plus and minus grids of the Trotterized baseline over the full 2**N
    basis with dense c(k): the columns [psi0, c(k) psi0 .., c^dag(k) psi0 ..]
    step from v = 0 forward with exp(-iH dt) (`_system_step` at -dt) and
    backward, then S+(k,v) = <c(k) psi(v)| [c(k) psi0](v)> and
    S-(k,v) = <c(k) [c^dag(k) psi0](v)| psi(v)>, windowed as the baseline."""
    n, steps = config.n_sites, config.trotter_steps
    psi0 = _dense_system_state(config)
    cks = [sv.momentum_annihilation(n, kk) for kk in config.momenta()]
    cols = np.stack([psi0] + [ck @ psi0 for ck in cks]
                    + [ck.conj().T @ psi0 for ck in cks], axis=1)
    evolved = {steps: cols}
    basis = sector.Basis(n)
    for sign, ivs in ((1, range(steps + 1, 2 * steps + 1)), (-1, range(steps - 1, -1, -1))):
        step = sector.compile_circuit(protocol._system_step(config, -sign * config.t / steps),
                                      basis)
        cur = cols
        for iv in ivs:
            cur = sector.run_program(step, cur.copy())
            evolved[iv] = cur
    states = [evolved[iv] for iv in range(2 * steps + 1)]
    splus = np.array([[np.vdot(ck @ cur[:, 0], cur[:, 1 + ik]) for cur in states]
                      for ik, ck in enumerate(cks)])
    sminus = np.array([[np.vdot(ck @ cur[:, 1 + n + ik], cur[:, 0]) for cur in states]
                       for ik, ck in enumerate(cks)])
    vgrid = np.linspace(-config.t, config.t, 2 * steps + 1)
    _, plus, minus = protocol._windowed_baseline(config, np.asarray(omegas, dtype=float),
                                                 vgrid, splus, sminus, return_parts=True)
    return plus.values, minus.values


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_sector_baseline_matches_dense_baseline(n):
    """The Trotterized baseline in the sectors n0 - 1, n0, n0 + 1 equals the
    dense full-basis path; N = 6 takes nu = -3, where V = 2.3 and 4 have a
    gapped ground state (0.53 and 1.5; at |nu| <= 1 it is degenerate)."""
    nu = -3.0 if n == 6 else -1.0
    for V in (0.0, 2.3, 4.0):
        for steps in (1, 2, 3):
            cfg = _cfg(n_sites=n, t=2.0, nu=nu, interaction=V, trotter_steps=steps)
            _, plus, minus = dynamical_correlation_baseline(cfg, OMEGAS, return_parts=True)
            want_plus, want_minus = _dense_trotterized_baseline(cfg, OMEGAS)
            assert np.max(np.abs(plus.values - want_plus)) <= 1e-12, (V, steps)
            assert np.max(np.abs(minus.values - want_minus)) <= 1e-12, (V, steps)


@pytest.mark.parametrize("V, order", [(0.0, 3.8), (2.3, 2.0)])
def test_trotterized_baseline_converges_to_continuous_at_same_omega(V, order):
    """The Trotterized baseline converges to the continuous-time one at the
    same omega; errors at 64, 256, 1024 steps were 3.0e-6, 1.1e-8, 7.6e-11
    (V = 0) and 1.5e-2, 9.6e-4, 6.0e-5 (V = 2.3), fitted orders 3.8 and 2.0.
    Stepping forward in v with exp(+iH dt) gives A(k, -omega) instead and
    stays 3.57 away at every step count."""
    cfg = ProtocolConfig(4, 0.3, t=5.0, nu=-1.0, interaction=V)
    omegas = [-1.5, 1.5]
    exact = dynamical_correlation_baseline(cfg, omegas).values
    step_counts = [64, 256, 1024]
    errs = [np.max(np.abs(dynamical_correlation_baseline(
        replace(cfg, trotter_steps=s), omegas).values - exact)) for s in step_counts]
    slope = np.polyfit(np.log(step_counts), np.log(errs), 1)[0]
    assert abs(slope + order) < 0.1, (errs, slope)


def test_lehmann_reference_free_case():
    """Also at N = 2 in its ground state, whose one bond gives the band nu cos k."""
    for cfg in [_cfg(n_sites=6, epsilon=0.0, t=4.0, initial_state=[1, 1, 0, 0, 1, 0]),
                *(_cfg(n_sites=2, epsilon=0.0, t=4.0, nu=nu) for nu in (1.0, -1.0))]:
        ref = reference_windowed_spectral(cfg, OMEGAS)
        kern = Kernel(cfg.t)
        plus = convolve_kernel(DeltaLineSpectrum.free_particle(cfg), kern, OMEGAS)
        minus = convolve_kernel(DeltaLineSpectrum.free_hole(cfg), kern, OMEGAS)
        assert np.max(np.abs(ref.values - plus.values - minus.values)) < 1e-10, cfg


def _dense_lehmann_lines(config):
    """A+/A- delta lines from the dense H_sys over the full 2**N basis, its
    ground state (interacting) or `_dense_system_state` (free), and dense
    c(k)."""
    n = config.n_sites
    w, vmat = np.linalg.eigh(protocol._system_hamiltonian(config, sector.Basis(n)))
    psi0 = vmat[:, 0] if config.interaction else _dense_system_state(config)
    e0 = float(w @ np.abs(vmat.conj().T @ psi0) ** 2)    # <psi0|H|psi0>
    ks = config.momenta()
    plus_c, plus_w, minus_c, minus_w = [], [], [], []
    for kk in ks:
        ck = sv.momentum_annihilation(n, kk)
        amp_minus = vmat.conj().T @ (ck @ psi0)          # <m|c(k)|E0>
        amp_plus = vmat.conj().T @ (ck.conj().T @ psi0)  # <m|c^dag(k)|E0>
        keep = np.abs(amp_minus) ** 2 > 1e-14
        plus_c.append(e0 - w[keep])
        plus_w.append(np.abs(amp_minus[keep]) ** 2)
        keep = np.abs(amp_plus) ** 2 > 1e-14
        minus_c.append(w[keep] - e0)
        minus_w.append(np.abs(amp_plus[keep]) ** 2)
    return (DeltaLineSpectrum(ks, plus_c, plus_w),
            DeltaLineSpectrum(ks, minus_c, minus_w))


@pytest.mark.parametrize("n, nu", [(4, -1.0), (6, -3.0), (8, -1.0), (9, -1.0)])
def test_reference_matches_dense_lehmann_lines(n, nu, monkeypatch):
    """The reference and the continuous-time baseline from the number-sector
    spectrum equal those from the dense H_sys and dense c(k).  Grids, not
    lines, are compared: degenerate levels split their weight arbitrarily.
    nu gaps the interacting ground states (at N = 6, |nu| <= 1 does not)."""
    runs = (reference_windowed_spectral, dynamical_correlation_baseline)
    for V in (0.0, 2.3, 4.0):
        cfg = _cfg(n_sites=n, epsilon=0.1, t=4.0, nu=nu, interaction=V)
        got = [run(cfg, OMEGAS).values for run in runs]
        with monkeypatch.context() as m:
            m.setattr(protocol, "lehmann_lines", _dense_lehmann_lines)
            want = [run(cfg, OMEGAS).values for run in runs]
        for run, g, w in zip(runs, got, want):
            assert np.max(np.abs(g - w)) <= 1e-12, (run.__name__, V)


def test_environment_method_matches_single_runs():
    rho = [1.0, 0.0, 1.0, 0.0]
    omegas = [0.0, 1.1]
    cfg = _cfg(n_sites=4, t=2.0, trotter_steps=16, initial_state=rho)
    combined = environment_method_grid(cfg, omegas)
    e = run_circuit_protocol(
        ProtocolConfig(4, cfg.epsilon, t=2.0, nu=cfg.nu, interaction=0.0, trotter_steps=16,
                       environment="empty", initial_state=rho), omegas)
    f = run_circuit_protocol(
        ProtocolConfig(4, cfg.epsilon, t=2.0, nu=cfg.nu, interaction=0.0, trotter_steps=16,
                       environment="full", initial_state=rho), omegas)
    assert np.max(np.abs(combined.values - e.values - f.values)) < 1e-12


def _embed_system_state(psi_sys, n):
    """Place an N-qubit system state on the even qubits of the 2N register."""
    state = np.zeros((2,) * (2 * n), dtype=complex)
    idx = tuple(slice(None) if q % 2 == 0 else 0 for q in range(2 * n))
    state[idx] = psi_sys.reshape((2,) * n)
    return state


def _fill_environment_circuit(n):
    """X on every environment qubit plus the fermionic parity fix.

    Adding the d_j^dag in descending order leaves Z strings on the system
    qubits; site j collects Z^(N-j), i.e. a Z wherever N-j is odd (for odd N:
    every other system qubit starting with the first).
    """
    from fermispec.circuits import Circuit, x, z
    gates = [x(2 * j + 1) for j in range(n - 1, -1, -1)]
    gates.extend(z(2 * j) for j in range(n) if (n - j) % 2 == 1)
    return Circuit(2 * n, tuple(gates))


def _dense_start_states(psi_sys, n):
    """The dense 2N-qubit start states of the empty and the full environment,
    prepared on the gate level from the dense system state psi_sys: psi_sys
    on the even qubits, and the filling circuit on top."""
    empty = _embed_system_state(psi_sys, n)
    return empty, sv.run_circuit(_fill_environment_circuit(n), empty)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9])
def test_sector_start_equals_dense_start(n):
    """The start vector built in the sectors equals the gate-level embedding
    and filling circuit of the system start state exactly, for a free and an
    interacting chain.  The free state, prepared in its sector by the prep
    circuit's compiled program, equals the gate-level prep to rounding."""
    for V in (0.0, 2.3):
        cfg = _cfg(n_sites=n, nu=-1.0, interaction=V)
        state = protocol._system_state(cfg)
        psi_sys = _embed_sector_state(n, state)
        assert np.max(np.abs(psi_sys - _dense_system_state(cfg))) <= 1e-14, V
        basis, start, masks = protocol._sector_start(cfg, ("empty", "full"), state)
        for mask, dense in zip(masks, _dense_start_states(psi_sys, n)):
            dense = dense.ravel()
            assert np.array_equal(start[mask], dense[basis.bits[mask]]), (V, mask.sum())
            outside = np.delete(dense, basis.bits[mask])
            assert np.linalg.norm(outside) <= 1e-12, V


def _gate_level_environment_grid(config, omegas):
    """environment_method_grid on the gate-level kernel: the dense 2N-qubit
    start states, trotter_step_circuit at each omega for every step, then
    _readout_circuit; empty n(k) plus full 1 - n(k)."""
    n = config.n_sites
    empty, full = _dense_start_states(_dense_system_state(config), n)
    readout = protocol._readout_circuit(n)
    vals = np.zeros((n, len(omegas)))
    for iw, om in enumerate(omegas):
        step = protocol.trotter_step_circuit(config, config.t / config.trotter_steps, om)
        for filling, state in (("empty", empty), ("full", full)):
            for _ in range(config.trotter_steps):
                state = sv.run_circuit(step, state)
            occ = sv.occupations(sv.run_circuit(readout, state), 2 * n)[n:]
            vals[:, iw] += occ if filling == "empty" else 1 - occ
    return SpectralGrid(config.momenta(), omegas, vals, "gate-level")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_environment_grid_matches_gate_level_pipeline(n):
    """The sector runner, with the step compiled once and the environment
    phase layer per omega, reproduces the emitted circuits gate by gate."""
    # odd interacting chains are degenerate at nu = 1
    configs = [_cfg(n_sites=n, t=2.0, nu=-1.0 if V and n % 2 else 1.0, interaction=V,
                    trotter_steps=3) for V in (0.0, 2.3)]
    assert verify.grids_match(_gate_level_environment_grid, environment_method_grid,
                              configs, [0.0, 0.7, -1.3], 1e-12, "max |gates - sectors|")


def test_least_squares_scale():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(least_squares_scale(x, 2 * x) - 2.0) < 1e-14


# ------------------------------------------------------------ grid plumbing

def test_spectral_grid_csv(tmp_path):
    grid = nk_exact_free(_cfg(n_sites=4, initial_state=[1, 0, 0, 0]), [0.0, 1.0])
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,omega,value,method"
    assert len(lines) == 1 + 4 * 2


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(1, 0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(4, 0.1, environment="half")
    with pytest.raises(ValueError):
        ProtocolConfig(4, 0.1, initial_state=[0.5, 0.2])  # wrong length
    with pytest.raises(ValueError, match="unknown initial_state"):
        ProtocolConfig(4, 0.1, initial_state="excited")
    with pytest.raises(ValueError, match="interaction = 0"):
        ProtocolConfig(4, 0.1, interaction=2.0, initial_state=[1, 0, 0, 1])
    for name, value in (("n_sites", 4.5), ("n_sites", True), ("trotter_steps", 2.5),
                        ("trotter_steps", False)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ProtocolConfig(**{"n_sites": 4, "epsilon": 0.1, name: value})
    assert ProtocolConfig(np.int64(4), 0.1, trotter_steps=np.int64(2)).n_sites == 4
    for name in ("epsilon", "t", "nu", "interaction"):
        for value, kind in ((np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
                            ("0.5", "a real number"), (None, "a real number"),
                            (True, "a real number")):
            with pytest.raises(ValueError, match=f"{name} must be {kind}, got"):
                ProtocolConfig(**{"n_sites": 4, "epsilon": 0.1, name: value})
    for rho in ([np.nan, 0, 0, 1], [0, 0, np.inf, 1], [True, False, False, True]):
        with pytest.raises(ValueError, match="rho_k must be"):
            ProtocolConfig(4, 0.1, initial_state=rho)


def test_config_takes_only_sites_and_coupling_positionally():
    """The frequencies are the grid functions' omega grid, not a config field, and
    a third positional value fails instead of landing in another field."""
    with pytest.raises(TypeError):
        ProtocolConfig(4, 0.3, 2.0)
    cfg = ProtocolConfig(4, 0.3, t=2.0, initial_state=[1, 0, 0, 1])
    assert "omega" not in cfg.snapshot()
    assert nk_gaussian(cfg, [0.5]).meta["config"] == cfg.snapshot()


def test_numpy_typed_config_meta_is_json():
    """numpy scalars in a config reach the grid's meta as the Python numbers
    they hold, so the meta dumps to JSON."""
    cfg = ProtocolConfig(np.int64(4), np.float32(0.3), t=np.float32(2.0),
                         trotter_steps=np.int32(3), initial_state=np.array([1, 0, 0, 1]))
    got = json.loads(json.dumps(nk_gaussian(cfg, [0.5]).meta))["config"]
    assert got == {"n_sites": 4, "epsilon": float(np.float32(0.3)), "t": 2.0, "nu": 1.0,
                   "interaction": 0.0, "trotter_steps": 3, "environment": "empty",
                   "initial_state": [1.0, 0.0, 0.0, 1.0]}
    snap = cfg.snapshot()
    assert all(type(snap[name]) is want for name, want in (
        ("n_sites", int), ("epsilon", float), ("t", float), ("trotter_steps", int)))


_OMEGA_ENTRY_POINTS = {
    "nk_exact_free": nk_exact_free,
    "nk_gaussian": nk_gaussian,
    "strong_coupling_leading": strong_coupling_leading,
    "run_circuit_protocol": run_circuit_protocol,
    "dynamical_correlation_baseline": dynamical_correlation_baseline,
    "environment_method_grid": environment_method_grid,
    "reference_windowed_spectral": reference_windowed_spectral,
    "compare_trotter": lambda cfg, omegas: compare_trotter(cfg, omegas, [1]),
    "convolve_kernel": lambda cfg, omegas: convolve_kernel(
        DeltaLineSpectrum.free_particle(cfg), Kernel(cfg.t), omegas),
}


@pytest.mark.parametrize("omegas", [[np.nan, 0.5], [np.inf], [[0.0, 0.5], [1.0, 1.5]], 0.5, [],
                                    [True, False], ["0.5"]],
                         ids=["nan", "inf", "2-D", "scalar", "empty", "bool", "str"])
@pytest.mark.parametrize("entry", sorted(_OMEGA_ENTRY_POINTS))
def test_bad_omega_grid_rejected(entry, omegas):
    """Every grid function rejects a non-finite, non-1-D or empty omega grid
    with one message before any work."""
    cfg = ProtocolConfig(4, 0.3, nu=0.0, initial_state=[1, 0, 0, 1])
    with pytest.raises(ValueError, match="omegas must be a 1-D sequence of finite numbers"):
        _OMEGA_ENTRY_POINTS[entry](cfg, omegas)


@pytest.mark.parametrize("kwargs, match", [
    ({"shots": 2.5}, "shots must be an integer, got 2.5"),
    ({"shots": True}, "shots must be an integer, got True"),
    ({"shots": -1}, "shots must be >= 0, got -1"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"shots": 10, "seed": False}, "seed must be an integer, got False"),
], ids=["shots-float", "shots-bool", "shots-negative", "seed-negative", "seed-float", "seed-bool"])
def test_shots_and_seed_rejected(kwargs, match):
    """run_circuit_protocol takes what the CLI takes: integers >= 0, not bools."""
    cfg = _cfg(n_sites=2, t=2.0, trotter_steps=8, initial_state=[1, 0])
    with pytest.raises(ValueError, match=match):
        run_circuit_protocol(cfg, [0.5], **kwargs)


def test_degenerate_ground_state_raises():
    # N = 6, V = 4, nu = -1 has E1 - E0 = 4.4e-16; so has N = 3, V = 2.3, nu = 1.
    # At nu = 0 the empty chain and every one-particle state have E = 0: the
    # lowest level of each of two sectors ties
    cfg = _cfg(n_sites=6, epsilon=0.1, t=5.0, nu=-1.0, interaction=4.0, trotter_steps=2)
    runs = (lambda: dynamical_correlation_baseline(cfg, OMEGAS),
            lambda: dynamical_correlation_baseline(replace(cfg, trotter_steps=0), OMEGAS),
            lambda: reference_windowed_spectral(cfg, OMEGAS),
            lambda: reference_windowed_spectral(replace(cfg, nu=0.0, interaction=1.0), OMEGAS),
            lambda: environment_method_grid(replace(cfg, n_sites=3, nu=1.0, interaction=2.3),
                                            OMEGAS))
    for run in runs:
        with pytest.raises(ValueError, match="degenerate interacting ground state"):
            run()

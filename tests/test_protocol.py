import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fermispec import protocol, sector, verify
from fermispec.circuits import format_circuit
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
    base = dict(n_sites=8, epsilon=0.3, omega=0.0, t=4.0, nu=1.0)
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
    rho = RNG.random(10)
    configs = [_cfg(n_sites=10, epsilon=0.45, t=4.2, nu=0.8, environment=env,
                    initial_state=rho) for env in ("empty", "full")]
    assert verify.gaussian_matches_closed_form(configs, OMEGAS, 1e-12)
    wrong = verify.grids_match(  # the Gaussian grid of the other filling
        nk_exact_free, lambda c, w: nk_gaussian(replace(c, environment="full"), w),
        configs[:1], OMEGAS, 1e-12, "max |closed form - Gaussian|")
    assert not wrong and "N=10, nu=0.8, empty environment" in wrong.detail


def _full_correlation_chain(config, omegas):
    """nk_gaussian as the full 2N x 2N evolution: diagonal-matrix initial
    state, square transfer, environment slice, three-operand einsum readout."""
    from fermispec.gaussian import coupled_hamiltonian, dft_matrix, mode_propagator
    n = config.n_sites
    f = dft_matrix(n)
    corr0 = np.zeros((2 * n, 2 * n), dtype=complex)
    corr0[0::2, 0::2] = f.conj() @ np.diag(config.rho()) @ f.T
    if config.environment == "full":
        corr0[1::2, 1::2] = np.eye(n)
    vals = np.zeros((n, len(omegas)))
    for iw, om in enumerate(omegas):
        t = mode_propagator(coupled_hamiltonian(n, config.nu, config.epsilon, om), config.t)
        corr = (t.T @ corr0 @ t.conj())[1::2, 1::2]
        nk = np.einsum("jk,jl,lk->k", f, corr, f.conj()).real
        vals[:, iw] = nk if config.environment == "empty" else 1 - nk
    return vals


@pytest.mark.parametrize("n", [2, 3, 8, 31])
def test_gaussian_matches_full_correlation_chain(n):
    rho = np.random.default_rng(n).random(n)
    for env in ("empty", "full"):
        cfg = _cfg(n_sites=n, epsilon=0.45, t=4.2, nu=0.8, environment=env,
                   initial_state=rho)
        want = _full_correlation_chain(cfg, OMEGAS)
        assert np.max(np.abs(nk_gaussian(cfg, OMEGAS).values - want)) <= 1e-12, env


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
    """Each emitted gate group equals the exponential of its Hamiltonian term."""
    from scipy.linalg import expm
    from fermispec import statevector as sv
    from fermispec.circuits import Circuit
    from fermispec.protocol import _hopping_bond_gates, _interaction_bond_gates

    n = 3  # 6 qubits total, wrap bond crosses four interposers
    dt, nu, V = 0.37, 0.8, 2.3
    ops = [sv.annihilation_operator(2 * n, 2 * j) for j in range(n)]
    for j in range(n):
        a, b = j, (j + 1) % n
        hop = nu * (ops[a].conj().T @ ops[b] + ops[b].conj().T @ ops[a])
        want = expm(1j * dt * hop)
        got = sv.circuit_unitary(Circuit(2 * n, tuple(_hopping_bond_gates(n, j, nu * dt, 2))))
        assert np.max(np.abs(want - got)) < 1e-12, f"hopping bond {j}"
        inter = V * (ops[a].conj().T @ ops[a] @ ops[b].conj().T @ ops[b])
        want = expm(1j * dt * inter)
        got = sv.circuit_unitary(Circuit(2 * n, tuple(_interaction_bond_gates(j, n, V * dt, 2))))
        # the decomposition drops a global phase exp(i V dt / 4)
        phase = np.exp(1j * V * dt / 4)
        assert np.max(np.abs(want - phase * got)) < 1e-12, f"interaction bond {j}"


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
            cfg = ProtocolConfig(n, 0.3, omega=omega, nu=0.8, interaction=V)
            step.update(format_circuit(protocol.trotter_step_circuit(cfg, dt)).encode())
            for sign in (1, -1):
                system.update(format_circuit(protocol._system_step(cfg, sign * dt, 1)).encode())
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
        ProtocolConfig(n, 0.3, omega=omega, nu=0.8, interaction=V), 0.37),), basis, psi)
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
    """Each hopping bond, compiled on every particle-number sector, equals
    exp(i dt nu (c_a^dag c_b + h.c.)) restricted to that sector.  With one
    particle the CZ string acts trivially; from two particles on it carries
    the JW sign, so a wrong string fails only there."""
    from scipy.linalg import expm
    from fermispec import sector, statevector as sv
    from fermispec.circuits import Circuit
    dt, nu = 0.37, 0.8
    ops = [sv.annihilation_operator(2 * n, 2 * j) for j in range(n)]
    for j in protocol.chain_bonds(n):
        a, b = j, (j + 1) % n
        want = expm(1j * dt * nu * (ops[a].conj().T @ ops[b] + ops[b].conj().T @ ops[a]))
        circuit = Circuit(2 * n, tuple(protocol._hopping_bond_gates(n, j, nu * dt, 2)))
        for k in range(2 * n + 1):
            basis = sector.Basis(2 * n, [k])
            program = sector.compile_circuit(circuit, basis)
            got = sector.run_program(program, np.eye(len(basis), dtype=complex))
            assert np.max(np.abs(got - want[np.ix_(basis.bits, basis.bits)])) < 1e-12, (j, k)


def _jw_system_hamiltonian(config):
    """H_sys from dense kron-built JW operators: the oracle of the bit-built one."""
    from fermispec import statevector as sv
    n = config.n_sites
    ops = [sv.annihilation_operator(n, j) for j in range(n)]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in protocol.chain_bonds(n):
        a, b = j, (j + 1) % n
        h += config.nu * (ops[a].conj().T @ ops[b] + ops[b].conj().T @ ops[a])
        if config.interaction != 0:
            h += config.interaction * (ops[a].conj().T @ ops[a] @ ops[b].conj().T @ ops[b])
    return h


@pytest.mark.parametrize("n", range(2, 10))
def test_system_hamiltonian_bit_built_equals_jw_operators(n):
    for nu, V in ((1.0, 0.0), (-1.0, 4.0), (0.8, 2.3), (0.3, -0.7), (0.0, 0.1)):
        cfg = ProtocolConfig(n, 0.1, nu=nu, interaction=V)
        assert np.array_equal(protocol._system_hamiltonian_dense(cfg),
                              _jw_system_hamiltonian(cfg)), (nu, V)


def test_one_eigendecomposition_per_call(monkeypatch):
    """The interacting ground state comes from one dense H_sys and one eigh per call."""
    calls = {"eigh": 0, "hamiltonian": 0}
    eigh, hamiltonian = np.linalg.eigh, protocol._system_hamiltonian_dense

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_hamiltonian(*args, **kwargs):
        calls["hamiltonian"] += 1
        return hamiltonian(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(protocol, "_system_hamiltonian_dense", counted_hamiltonian)
    cfg = _cfg(n_sites=4, t=2.0, nu=-1.0, interaction=2.3, trotter_steps=2)
    omegas = [0.0, 1.0]
    runs = {"environment_method_grid": lambda: environment_method_grid(cfg, omegas),
            "reference_windowed_spectral": lambda: reference_windowed_spectral(cfg, omegas),
            "continuous-time baseline": lambda: dynamical_correlation_baseline(
                replace(cfg, trotter_steps=0), omegas),
            "Trotterized baseline": lambda: dynamical_correlation_baseline(cfg, omegas)}
    for name, run in runs.items():
        calls.update(eigh=0, hamiltonian=0)
        run()
        assert calls == {"eigh": 1, "hamiltonian": 1}, name
    # the reference, then one grid and one baseline per step count
    calls.update(eigh=0, hamiltonian=0)
    compare_trotter(cfg, omegas, [1, 2])
    assert calls == {"eigh": 5, "hamiltonian": 5}


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
    """At N = 12 the dense operators exceed 1 GiB: both dense references
    raise before building any of them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense operator built")

    monkeypatch.setattr(protocol, "_system_hamiltonian_dense", forbidden)
    monkeypatch.setattr(protocol.sv, "momentum_annihilation", forbidden)
    monkeypatch.setattr(protocol.sv, "annihilation_operator", forbidden)
    cfg = _cfg(n_sites=12, epsilon=0.1, t=2.0, nu=-1.0, interaction=4.0)
    for run in (lambda: dynamical_correlation_baseline(cfg, OMEGAS),
                lambda: dynamical_correlation_baseline(replace(cfg, trotter_steps=2), OMEGAS),
                lambda: protocol.lehmann_lines(cfg)):
        with pytest.raises(ValueError, match=r"GiB \(limit 1 GiB\)"):
            run()


def test_start_state_outside_one_sector_raises(monkeypatch):
    """A start state that is not a particle-number eigenstate cannot run in
    one sector and raises instead of losing weight."""
    n = 4
    mixed = np.zeros((2,) * n, dtype=complex)
    mixed[(1, 0, 0, 0)] = mixed[(1, 1, 0, 0)] = np.sqrt(0.5)
    monkeypatch.setattr(protocol, "_system_state", lambda config: mixed)
    cfg = _cfg(n_sites=n, trotter_steps=1, initial_state=[1, 0, 0, 0])
    with pytest.raises(ValueError, match="not a particle-number eigenstate"):
        environment_method_grid(cfg, [0.0])


def test_circuit_protocol_positivity_under_coarse_steps():
    for steps in (1, 2, 5):
        cfg = _cfg(n_sites=4, t=5.0, trotter_steps=steps, interaction=3.0, nu=-1.0)
        grid = run_circuit_protocol(cfg, [0.0, 1.0])
        assert grid.in_unit_interval()


def test_circuit_protocol_size_guards():
    with pytest.raises(ValueError):
        run_circuit_protocol(_cfg(n_sites=16, trotter_steps=2), [0.0])
    with pytest.raises(ValueError):
        run_circuit_protocol(_cfg(n_sites=4), [0.0])  # steps = 0
    for run in (run_circuit_protocol, environment_method_grid):
        with pytest.raises(ValueError, match=r"n_sites = 2\*\*k or 3\*\*k"):
            run(_cfg(n_sites=6, trotter_steps=2), [0.0])


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
    from fermispec import statevector as sv
    w, vmat = np.linalg.eigh(protocol._system_hamiltonian_dense(config))
    psi0 = protocol._system_state(config, (w, vmat)).ravel()
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


def test_lehmann_reference_free_case():
    cfg = _cfg(n_sites=6, epsilon=0.0, t=4.0, initial_state=[1, 1, 0, 0, 1, 0])
    ref = reference_windowed_spectral(cfg, OMEGAS)
    kern = Kernel(cfg.t)
    plus = convolve_kernel(DeltaLineSpectrum.free_particle(cfg), kern, OMEGAS)
    minus = convolve_kernel(DeltaLineSpectrum.free_hole(cfg), kern, OMEGAS)
    assert np.max(np.abs(ref.values - plus.values - minus.values)) < 1e-10


def test_environment_method_matches_single_runs():
    rho = [1.0, 0.0, 1.0, 0.0]
    omegas = [0.0, 1.1]
    cfg = _cfg(n_sites=4, t=2.0, trotter_steps=16, initial_state=rho)
    combined = environment_method_grid(cfg, omegas)
    e = run_circuit_protocol(
        ProtocolConfig(4, cfg.epsilon, 0.0, 2.0, cfg.nu, 0.0, 16, "empty", rho), omegas)
    f = run_circuit_protocol(
        ProtocolConfig(4, cfg.epsilon, 0.0, 2.0, cfg.nu, 0.0, 16, "full", rho), omegas)
    assert np.max(np.abs(combined.values - e.values - f.values)) < 1e-12


def _gate_level_environment_grid(config, omegas):
    """environment_method_grid on the gate-level kernel: the dense 2N-qubit
    start states, trotter_step_circuit at each omega for every step, then
    _readout_circuit; empty n(k) plus full 1 - n(k)."""
    from fermispec import statevector as sv
    n = config.n_sites
    empty = protocol._embed_system_state(protocol._system_state(config), n)
    full = sv.run_circuit(protocol._fill_environment_circuit(n), empty)
    readout = protocol._readout_circuit(n)
    vals = np.zeros((n, len(omegas)))
    for iw, om in enumerate(omegas):
        step = protocol.trotter_step_circuit(replace(config, omega=om),
                                             config.t / config.trotter_steps)
        for filling, state in (("empty", empty), ("full", full)):
            for _ in range(config.trotter_steps):
                state = sv.run_circuit(step, state)
            occ = sv.occupations(sv.run_circuit(readout, state))[n:]
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
    for name in ("epsilon", "omega", "t", "nu", "interaction"):
        for value in (np.nan, np.inf, -np.inf, "0.5", None):
            with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                ProtocolConfig(**{"n_sites": 4, "epsilon": 0.1, name: value})
    for rho in ([np.nan, 0, 0, 1], [0, 0, np.inf, 1]):
        with pytest.raises(ValueError, match="rho_k must be"):
            ProtocolConfig(4, 0.1, initial_state=rho)


def test_degenerate_ground_state_raises():
    # N = 6, V = 4, nu = -1 has E1 - E0 = 4.4e-16; so has N = 3, V = 2.3, nu = 1
    cfg = _cfg(n_sites=6, epsilon=0.1, t=5.0, nu=-1.0, interaction=4.0, trotter_steps=2)
    runs = (lambda: dynamical_correlation_baseline(cfg, OMEGAS),
            lambda: dynamical_correlation_baseline(replace(cfg, trotter_steps=0), OMEGAS),
            lambda: reference_windowed_spectral(cfg, OMEGAS),
            lambda: environment_method_grid(replace(cfg, n_sites=3, nu=1.0, interaction=2.3),
                                            OMEGAS))
    for run in runs:
        with pytest.raises(ValueError, match="degenerate interacting ground state"):
            run()

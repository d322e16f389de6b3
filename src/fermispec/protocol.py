"""System-environment protocol for measuring spectral functions A(k, w).

A system of N sites (modes c_j) couples to an N-site environment (modes d_j)
through H = H_sys + eps*H_int + omega*H_env with H_int = (1/2) sum_j
(d_j^dag c_j + h.c.) and H_env = sum_j d_j^dag d_j.  Starting from an
eigenstate of H_sys and an empty environment, evolving with exp(+iHt) and
measuring the environment momentum occupation n(k) = d(k)^dag d(k) with
d(k) = N^(-1/2) sum_j e^{-ijk} d_j gives

    <n(k)> = eps^2 (A+ * phi_hat)(k, omega) + O(eps^4),

where phi_hat(w) = sin^2(w t / 2) / w^2 is the finite-time observation
kernel and * the frequency convolution with a 1/(2 pi) normalization.  A
completely filled environment measures <1 - n(k)> and yields the hole part
A-.  For the free hopping Hamiltonian H_sys = nu * sum_j (c_j^dag c_{j+1}
+ h.c.) the outcome is known in closed form:

    <n(k)> = eps^2 sin^2(t*Omega) / (eps^2 + (omega - e_k)^2) * rho_k,
    Omega  = sqrt(eps^2 + (omega - e_k)^2) / 2,

with the band e_k = 2 nu cos k (`gaussian.band_energies`; nu cos k at N = 2,
whose two sites share one bond) and the hole density 1 - rho_k replacing
rho_k in the filled-environment reading (the two-mode strong-coupling
solution fixes this; the functional form is unchanged).

Everything (Fourier signs, Heisenberg direction, JW ordering c_0,d_0,c_1,...)
is pinned by requiring the Gaussian simulation, the closed form, and the
Trotterized circuit pipeline to agree numerically.
"""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .circuits import (Circuit, Gate, cx, cz, givens, is_finite_real, is_integer, remap,
                       require_finite_real, require_integer, rz)
from .fft import (InterleaveStrategy, fft_circuit, fft_radix, ground_state_momenta,
                  ground_state_prep_circuit, interleave_circuit,
                  interleave_permutation)
from .gaussian import (band_energies, chain_bonds, chain_hopping, coupled_transfer,
                       eigenbasis_occupations, state_from_momentum_occupations)
from . import sector


# --------------------------------------------------------------------------
# configuration and result grid
# --------------------------------------------------------------------------

@dataclass
class ProtocolConfig:
    """A protocol run's inputs except the frequencies, which every grid
    function takes as its omega grid.  Only n_sites and epsilon are
    positional; the other fields are keyword-only."""
    n_sites: int
    epsilon: float
    _: KW_ONLY
    t: float = 5.0
    nu: float = 1.0
    interaction: float = 0.0          # V; 0 = free fermions
    trotter_steps: int = 0            # 0 = continuous time
    environment: str = "empty"        # "empty" | "full"
    initial_state: object = "ground"  # "ground" | sequence of rho_k in [0,1]

    def __post_init__(self):
        require_integer("n_sites", self.n_sites, 2)
        require_integer("trotter_steps", self.trotter_steps)
        for name in ("epsilon", "t", "nu", "interaction"):
            require_finite_real(name, getattr(self, name))
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.environment not in ("empty", "full"):
            raise ValueError(f"environment must be 'empty' or 'full', got {self.environment!r}")
        if isinstance(self.initial_state, str):
            if self.initial_state != "ground":
                raise ValueError(f"unknown initial_state {self.initial_state!r}")
        else:
            if np.shape(self.initial_state) != (self.n_sites,) or not all(
                    is_finite_real(r) and 0 <= r <= 1 for r in self.initial_state):
                raise ValueError("explicit rho_k must be n_sites values in [0, 1]")
            if self.interaction != 0:
                raise ValueError("an interacting chain starts in its ground state; "
                                 "explicit rho_k needs interaction = 0")

    def momenta(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n_sites) / self.n_sites

    def rho(self) -> np.ndarray:
        if isinstance(self.initial_state, str):
            filled = ground_state_momenta(self.n_sites, self.nu)
            rho = np.zeros(self.n_sites)
            rho[list(filled)] = 1.0
            return rho
        return np.asarray(self.initial_state, dtype=float)

    def snapshot(self) -> dict:
        """The fields as JSON-ready values: numpy scalars become the Python
        numbers they hold, and explicit rho_k a list of floats."""
        d = {k: v.item() if isinstance(v, np.generic) else v
             for k, v in asdict(self).items()}
        if not isinstance(d["initial_state"], str):
            d["initial_state"] = list(map(float, d["initial_state"]))
        return d


@dataclass
class SpectralGrid:
    """Samples on the (k, omega) grid; values[ik, iw]."""
    k: np.ndarray
    omega: np.ndarray
    values: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.k), len(self.omega)):
            raise ValueError("values must have shape (len(k), len(omega))")

    def in_unit_interval(self) -> bool:
        """Every value lies in [0, 1], to 1e-10."""
        return bool(self.values.min() >= -1e-10 and self.values.max() <= 1 + 1e-10)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("k,omega,value,method\n")
            for ik, kk in enumerate(self.k):
                for iw, ww in enumerate(self.omega):
                    fh.write(f"{float(kk)!r},{float(ww)!r},"
                             f"{float(self.values[ik, iw])!r},{self.method}\n")


def _omega_grid(omegas) -> np.ndarray:
    """Finite real omegas as a non-empty 1-D float array, or ValueError."""
    try:
        grid = np.asarray(omegas, dtype=float)
    except (TypeError, ValueError):
        grid = None
    if (grid is None or grid.ndim != 1 or not grid.size
            or not all(is_finite_real(w) for w in omegas)):
        raise ValueError(f"omegas must be a 1-D sequence of finite numbers, at least one, "
                         f"got {omegas!r}")
    return grid


# --------------------------------------------------------------------------
# observation kernel and delta-line convolution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """phi_hat(w) = sin^2(w t / 2) / w^2, with phi_hat(0) = t^2 / 4."""
    t: float

    def __call__(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return (self.t ** 2 / 4) * np.sinc(w * self.t / (2 * np.pi)) ** 2


@dataclass
class DeltaLineSpectrum:
    """A(k, w) = sum_lines 2*pi*weight*delta(w - center), stored per k."""
    k: np.ndarray
    centers: list[np.ndarray]
    weights: list[np.ndarray]

    @staticmethod
    def free_particle(config: ProtocolConfig) -> "DeltaLineSpectrum":
        return DeltaLineSpectrum._free_band(config, config.rho())

    @staticmethod
    def free_hole(config: ProtocolConfig) -> "DeltaLineSpectrum":
        return DeltaLineSpectrum._free_band(config, 1 - config.rho())

    @staticmethod
    def _free_band(config: ProtocolConfig, weights: np.ndarray) -> "DeltaLineSpectrum":
        """One line per k at the band energy `band_energies`."""
        centers = band_energies(config.n_sites, config.nu)
        return DeltaLineSpectrum(config.momenta(), list(centers[:, None]), list(weights[:, None]))


def convolve_kernel(spectrum: DeltaLineSpectrum, kern: Kernel,
                    omegas: Sequence[float]) -> SpectralGrid:
    """(A * phi_hat)(k, w); exact for the symbolic delta-line representation."""
    omegas = _omega_grid(omegas)
    vals = np.zeros((len(spectrum.k), len(omegas)))
    for ik in range(len(spectrum.k)):
        c = spectrum.centers[ik][:, None]
        w = spectrum.weights[ik][:, None]
        vals[ik] = (w * kern(omegas[None, :] - c)).sum(axis=0)
    return SpectralGrid(spectrum.k, omegas, vals, "kernel-convolution")


def broadening_and_ghosts(epsilon: float, t: float) -> dict:
    """Main-band width and first ghost-band amplitude ratio at finite eps, t.

    n is the smallest integer with (n-1)*pi <= eps*t/2 < n*pi; the first zero
    of the oscillation away from resonance gives the width
    delta_omega = (2 n pi / t) sqrt(1 - (eps t / 2 n pi)^2) and the next band
    is suppressed by r = (t*eps / (2 n pi + t*eps))^2.  Every grid depends on
    eps only through eps^2, so -eps gives the result of eps.
    """
    require_finite_real("epsilon", epsilon)
    require_finite_real("t", t)
    if t <= 0:
        raise ValueError("t must be > 0")
    epsilon = abs(epsilon)
    half = epsilon * t / 2
    n = math.floor(half / math.pi) + 1
    ratio = (t * epsilon / (2 * n * math.pi + t * epsilon)) ** 2
    delta = (2 * n * math.pi / t) * math.sqrt(max(0.0, 1 - (half / (n * math.pi)) ** 2))
    return {"delta_omega": delta, "ratio_r": ratio, "n": n}


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def _require_free(config: ProtocolConfig, what: str) -> None:
    if config.interaction != 0:
        raise ValueError(f"{what} requires V = 0 (free fermions)")


def _two_level(config: ProtocolConfig, omegas, band: np.ndarray, what: str,
               method: str) -> SpectralGrid:
    """Per k the two-level Rabi form eps^2 sin^2(t*Omega) / (eps^2 + delta^2),
    delta = omega - band[k], times rho_k (empty environment) or 1 - rho_k
    (full); 0 where eps = delta = 0."""
    _require_free(config, what)
    omegas = _omega_grid(omegas)
    ks = config.momenta()
    rho = config.rho()
    weight = rho if config.environment == "empty" else 1 - rho
    delta = omegas[None, :] - band[:, None]
    rabi2 = config.epsilon ** 2 + delta ** 2
    omega_big = 0.5 * np.sqrt(rabi2)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = config.epsilon ** 2 * np.sin(config.t * omega_big) ** 2 / rabi2
    vals = np.where(rabi2 == 0, 0.0, vals) * weight[:, None]
    return SpectralGrid(ks, omegas, vals, method, {"config": config.snapshot()})


def nk_exact_free(config: ProtocolConfig, omegas) -> SpectralGrid:
    """Closed-form environment occupation for the free hopping Hamiltonian."""
    return _two_level(config, omegas, band_energies(config.n_sites, config.nu),
                      "nk_exact_free", "exact-free")


def strong_coupling_leading(config: ProtocolConfig, omegas) -> SpectralGrid:
    """Leading order in the hopping: sin^2(t*Omega0) eps^2/(w^2+eps^2) times
    rho_k (empty environment) or 1 - rho_k (full), as in `nk_exact_free`."""
    return _two_level(config, omegas, np.zeros(config.n_sites),
                      "strong_coupling_leading", "strong-coupling")


# --------------------------------------------------------------------------
# Gaussian (continuous-time) protocol simulation
# --------------------------------------------------------------------------

def nk_gaussian(config: ProtocolConfig, omegas) -> SpectralGrid:
    """Continuous-time protocol on the correlation matrix of the 2N modes.

    The initial correlation (momentum-diagonal system, empty or full
    environment) has no system-environment block, so the evolved environment
    block is the system block C carried through T_se, plus, for the full
    environment, the filled block carried through T_ee.  Once per call the
    real-space hopping H_s = U diag(lambda) U^T is diagonalized, and C and the
    DFT are brought into its eigenbasis as D = U^T C U and Q = U^T F.  Each
    omega then takes (beta, gamma) from `coupled_transfer` and reads n(k)
    with `eigenbasis_occupations`, one N x N complex product; the filled
    environment adds |gamma|^2 @ |Q|^2 and reports 1 - n(k).
    """
    _require_free(config, "nk_gaussian")
    omegas = _omega_grid(omegas)
    n = config.n_sites
    # N x N arrays, counted as if held at once: the real U and |Q|^2 and six
    # complex ones (start state, DFT, Q, D, and per omega V and D^T V)
    _require_memory((2 * 8 + 6 * 16) * n * n,
                    f"nk_gaussian at N = {n} would hold its N x N arrays")
    ks = config.momenta()
    sys0 = state_from_momentum_occupations(config.rho())
    levels, u = np.linalg.eigh(chain_hopping(n, config.nu))
    d = np.empty_like(sys0)         # U^T C U; U is real, so real products
    d.real = u.T @ sys0.real @ u
    d.imag = u.T @ sys0.imag @ u
    del sys0                        # free C: only D is read from here on
    q = np.fft.ifft(u.T, axis=1)
    q *= math.sqrt(n)
    filled = np.abs(q) ** 2 if config.environment == "full" else None
    vals = np.zeros((n, len(omegas)))
    for iw, om in enumerate(omegas):
        beta, gamma = coupled_transfer(levels, config.epsilon, om, config.t)
        nk = eigenbasis_occupations(d, q, beta)
        vals[:, iw] = nk if filled is None else 1 - nk - np.abs(gamma) ** 2 @ filled
    return SpectralGrid(ks, omegas, vals, "gaussian", {"config": config.snapshot()})


# --------------------------------------------------------------------------
# Trotterized circuit pipeline (gate-level circuits, run in number sectors)
# --------------------------------------------------------------------------

def _env_terms(n: int, omega: float) -> list[tuple]:
    """omega n_q on each environment qubit 2j+1; none at omega = 0."""
    return [] if omega == 0 else [("onsite", (2 * j + 1,), omega) for j in range(n)]


def _terms(config: ProtocolConfig, stride: int, omega: float = 0.0):
    """The chain's Hamiltonian as (kind, qubits, coefficient) in step order,
    with system site j on qubit stride*j: stride 1 is H_sys on the N system
    qubits, stride 2 is H on the interleaved c_0,d_0,c_1,... register.

    "hop" is c (a_p^dag a_q + h.c.), "nn" is c n_p n_q and "onsite" is c n_q.
    The terms are the hopping nu on the even bonds, then the odd bonds; V on
    each bond (none at V = 0); at stride 2 the coupling eps/2 as a hop between
    qubits 2j and 2j+1, then `_env_terms`.
    """
    n = config.n_sites
    bonds = [(stride * j, stride * ((j + 1) % n)) for j in chain_bonds(n)]
    for qubits in bonds[0::2] + bonds[1::2]:
        yield "hop", qubits, config.nu
    if config.interaction != 0:
        for qubits in bonds:
            yield "nn", qubits, config.interaction
    if stride == 2:
        for j in range(n):
            yield "hop", (2 * j, 2 * j + 1), config.epsilon / 2
        yield from _env_terms(n, omega)


def _jw_span(p: int, q: int) -> range:
    """The qubits strictly between p and q, whose parity is a hop's JW sign."""
    return range(min(p, q) + 1, max(p, q))


def _term_gates(kind: str, qubits: tuple, coefficient: float, dt: float) -> list[Gate]:
    """exp(i dt * term) as gates; "nn" and "onsite" drop a global phase.

    A hop is a GIVENS between its qubits, conjugated by CZs from the lower
    one onto its JW span, which carry the string's sign.
    """
    theta = coefficient * dt
    if kind == "onsite":
        return [rz(theta, *qubits)]
    p, q = qubits
    if kind == "nn":
        return [rz(theta / 2, p), rz(theta / 2, q), cx(p, q), rz(-theta / 2, q), cx(p, q)]
    lo = min(p, q)
    string = [cz(lo, m) for m in _jw_span(p, q)]
    return [*string, givens(theta, lo, max(p, q)), *string[::-1]]


def _step(terms, num_qubits: int, dt: float) -> Circuit:
    """First-order step of exp(+i H dt), H the sum of `terms`, in their order."""
    return Circuit(num_qubits, tuple(g for term in terms for g in _term_gates(*term, dt)))


def _system_step(config: ProtocolConfig, dt: float) -> Circuit:
    """First-order step of exp(+i H_sys dt) on the N system qubits."""
    return _step(_terms(config, 1), config.n_sites, dt)


def trotter_step_circuit(config: ProtocolConfig, dt: float, omega: float) -> Circuit:
    """One first-order step of exp(+i H dt) at environment frequency omega:
    hopping (even bonds, odd bonds), interaction, coupling, environment phase."""
    return _step(_terms(config, 2, omega), 2 * config.n_sites, dt)


def _system_hamiltonian(config: ProtocolConfig, basis: sector.Basis) -> np.ndarray:
    """Real many-body Hamiltonian of `_terms` over `basis`, a `sector.Basis`
    of N qubits (H_sys) or 2N qubits (H at omega = 0): the dense matrix on the
    full basis, its block on a sector basis.  A hop moves a particle between
    its qubits with the JW sign (-1)^(occupied qubits of its `_jw_span`);
    every other term, on one or two qubits, adds c times the AND of their
    occupations to the diagonal, term by term in the order a sum of dense
    JW-operator products would.
    """
    nq = basis.num_qubits
    h = np.zeros((len(basis), len(basis)))
    diag = np.zeros(len(basis))
    for kind, qubits, c in _terms(config, nq // config.n_sites):
        if kind == "hop":
            i01, i10 = basis.pair(*sorted(qubits))
            span = sum(1 << (nq - 1 - m) for m in _jw_span(*qubits))
            h[i01, i10] = h[i10, i01] = c * sector.parity_sign(basis.bits[i01] & span)
        else:
            diag += c * (basis.occupied(qubits[0]) & basis.occupied(qubits[-1]))
    np.fill_diagonal(h, diag)
    return h


def _system_spectrum(config: ProtocolConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """The eigh pair (w, v) of H_sys in each particle-number sector, as
    spectrum[k] for k = 0..N with v over `sector.Basis(N, [k])`."""
    n = config.n_sites
    sizes = [math.comb(n, k) for k in range(n + 1)]
    # every block's eigenvectors, and the largest block's copy and 2x workspace in LAPACK
    _require_memory(8 * (sum(d * d for d in sizes) + 3 * max(sizes) ** 2),
                    f"the spectrum of H_sys at N = {n} would hold {n + 1} sector eigenbases")
    return [np.linalg.eigh(_system_hamiltonian(config, sector.Basis(n, [k])))
            for k in range(n + 1)]


def _state_from_filled(n: int, filled: np.ndarray) -> tuple[int, np.ndarray]:
    """prod_k c^dag(k) |0> over the filled momentum indices, the lowest k
    applied first, from `sector.create` on the sectors 0..n0:
    (n0, amplitudes over `sector.Basis(n, [n0])`)."""
    n0 = len(filled)
    basis = sector.Basis(n, range(n0 + 1))
    psi = (basis.bits == 0).astype(complex)
    for m in filled:
        psi = sector.create(basis, psi)[m]
    psi = psi[basis.particle_numbers() == n0]
    return n0, psi / np.linalg.norm(psi)


def _system_state(config: ProtocolConfig, spectrum: list | None = None) -> tuple[int, np.ndarray]:
    """Initial system state as (n0, amplitudes over `sector.Basis(N, [n0])`).

    A free chain starts in its 0/1 momentum filling: for N = 2**k or 3**k
    the prep circuit's X layer sets the start bitstring and its remainder,
    the inverse FFFT, runs in that sector; otherwise `_state_from_filled`.
    An interacting chain starts in the lowest level of `spectrum`
    (`_system_spectrum` when None); a gap below 1e-9 to the next level, over
    all sectors, raises.
    """
    n = config.n_sites
    rho = config.rho()
    if not np.all((rho < 1e-12) | (rho > 1 - 1e-12)):
        raise ValueError("the initial system state needs 0/1 momentum occupations")
    if config.interaction != 0:
        spectrum = _system_spectrum(config) if spectrum is None else spectrum
        e0, e1 = np.sort(np.concatenate([w for w, _ in spectrum]))[:2]
        if e1 - e0 < 1e-9:
            raise ValueError(f"degenerate interacting ground state: gap E1 - E0 = "
                             f"{e1 - e0:.3g} < 1e-9")
        n0 = int(np.argmin([w[0] for w, _ in spectrum]))
        return n0, spectrum[n0][1][:, 0]
    filled = np.flatnonzero(rho > 0.5)
    if not fft_radix(n):
        return _state_from_filled(n, filled)
    basis = sector.Basis(n, [len(filled)])
    psi = (basis.bits == sum(1 << (n - 1 - int(j)) for j in filled)).astype(complex)
    rest = Circuit(n, ground_state_prep_circuit(n, filled).gates[len(filled):])
    return len(filled), sector.run_program(sector.compile_circuit(rest, basis), psi)


def _readout_circuit(n: int) -> Circuit:
    """Physical 2-way interleave on 2N qubits followed by the N-mode environment FFFT."""
    inter = interleave_circuit(interleave_permutation(2 * n, 2), InterleaveStrategy.LOCAL_FSWAP)
    env_fft = fft_circuit(n, fft_radix(n), InterleaveStrategy.LOCAL_FSWAP)
    return Circuit(2 * n, inter.gates + remap(env_fft, range(n, 2 * n), 2 * n).gates)


def _require_readout(n: int) -> None:
    if fft_radix(n) is None:
        raise ValueError("environment FFT readout needs n_sites = 2**k or 3**k")


def _sector_start(config: ProtocolConfig, environments: Sequence[str], state: tuple):
    """The start states of the environment fillings, built in their
    particle-number sectors from the system start state (n0, amps).

    The amplitudes move onto the even qubits of the 2N register.  A full
    environment sets every odd qubit with the sign of adding the d_j^dag in
    descending order: site j collects Z^(N-j), a -1 for each occupied site j
    with N - j odd.  The fillings sit in the disjoint sectors n0 and n0 + N,
    so they share one vector over the union basis.  Returns (basis, vector,
    masks), masks[b] selecting the sector of filling b.
    """
    n = config.n_sites
    n0, amps = state
    sectors = [n0 if env == "empty" else n0 + n for env in environments]
    basis = sector.Basis(2 * n, sectors)
    bits = sector.Basis(n, [n0]).bits.astype(basis.bits.dtype)
    # system site j is bit n-1-j of `bits` and qubit 2j, bit 2(n-1-j)+1, of the register
    spread = np.zeros_like(bits)
    for p in range(n):
        spread |= ((bits >> p) & 1) << (2 * p + 1)
    env_bits = sum(1 << (2 * p) for p in range(n))
    # site j (bit p = n-1-j) has N - j = p + 1 odd when p is even
    z_string = sum(1 << p for p in range(0, n, 2))
    filled_amps = amps * sector.parity_sign(bits & z_string)
    numbers = basis.particle_numbers()
    masks = [numbers == k for k in sectors]
    start = np.zeros(len(basis), dtype=complex)
    for env in environments:
        at, values = (spread, amps) if env == "empty" else (spread | env_bits, filled_amps)
        start[np.searchsorted(basis.bits, at)] = values
    return basis, start, masks


def _run_trotter(config: ProtocolConfig, omegas: np.ndarray, environments: Sequence[str],
                 step_counts: list, shots: int = 0, seed: int = 0, state=None) -> np.ndarray:
    """Trotterized pipeline on 2N qubits at each of `step_counts`, run in the
    particle-number sectors of the environment fillings.

    Every gate after the start state conserves particle number, so the
    fillings evolve as one vector over their sectors (`_sector_start`),
    through `trotter_step_circuit` and `_readout_circuit` compiled by
    `sector.compile_circuit`.  The basis, start vector and readout are built
    once per call for every step count; per count the step's terms at omega = 0
    compile once, and its onsite terms `_env_terms`, its only omega
    dependence, once per omega.  Returns the environment occupations n(k),
    shape (len(step_counts), N, len(omegas), len(environments)); shots > 0
    samples them per count, omega, then filling, from one seeded generator.
    `state` is the system start state when the caller has built it.
    """
    n = config.n_sites
    nq = 2 * n
    if min(step_counts) < 1:
        raise ValueError("the circuit protocol needs trotter_steps >= 1")
    _require_readout(n)
    if state is None and config.interaction != 0:
        state = _system_state(config)
    # sized before a free chain's state is built (n0 is its filled-mode count), at 56 B
    # per sector state per qubit for programs, caches and vectors (measured at most 49)
    n0 = int((config.rho() > 0.5).sum()) if state is None else state[0]
    size = sum(math.comb(nq, n0 + n * (env == "full")) for env in environments)
    _require_memory(56 * nq * size, f"the circuit protocol would run {size} sector states")
    basis, start, masks = _sector_start(
        config, environments, _system_state(config) if state is None else state)
    readout = sector.compile_circuit(_readout_circuit(n), basis)
    # after the readout, qubit N + k holds n(k)
    tables = [np.stack([basis.occupied(q)[mask] for q in range(n, nq)], axis=1).astype(float)
              for mask in masks]
    rng = np.random.default_rng(seed)
    occ = np.zeros((len(step_counts), n, len(omegas), len(environments)))
    for i, steps in enumerate(step_counts):
        dt = config.t / steps
        step = sector.compile_circuit(trotter_step_circuit(config, dt, 0.0), basis)
        for iw, om in enumerate(omegas):
            phase = sector.compile_circuit(_step(_env_terms(n, om), nq, dt), basis)
            state = start.copy()
            for _ in range(steps):
                sector.run_program(step, state)
                sector.run_program(phase, state)
            probs = np.abs(sector.run_program(readout, state)) ** 2
            for b, (mask, table) in enumerate(zip(masks, tables)):
                p = probs[mask]
                if shots:
                    # multinomial Z-basis sampling over the filling's sector
                    p = rng.multinomial(shots, p / p.sum()) / shots
                occ[i, :, iw, b] = p @ table
        del step, phase     # free this count's programs before the next compiles
    return occ


def run_circuit_protocol(config: ProtocolConfig, omegas, shots: int = 0,
                         seed: int = 0) -> SpectralGrid:
    """Full Trotterized pipeline on 2N qubits.

    Default readout is the exact Z-basis expectation; shots > 0 switches to
    multinomial sampling of Z outcomes with a seeded generator.  shots and
    seed are integers >= 0.
    """
    require_integer("shots", shots)
    require_integer("seed", seed)
    omegas = _omega_grid(omegas)
    occ = _run_trotter(config, omegas, (config.environment,), [config.trotter_steps],
                       shots, seed)[0, ..., 0]
    vals = occ if config.environment == "empty" else 1 - occ
    meta = {"config": config.snapshot()}
    if shots:
        meta.update(shots=shots, seed=seed)
    return SpectralGrid(config.momenta(), omegas, vals, "circuit-protocol", meta)


# --------------------------------------------------------------------------
# dynamical-correlation baseline and exact windowed reference
# --------------------------------------------------------------------------

def _require_memory(need: float, what: str) -> None:
    """Raise before a call holds `need` bytes at once when they would exceed
    1 GiB; `what` says what it would hold."""
    if need > 2 ** 30:
        raise ValueError(f"{what}, about {need / 2 ** 30:.1f} GiB (limit 1 GiB)")


def dynamical_correlation_baseline(config: ProtocolConfig, omegas,
                                   return_parts: bool = False):
    """Classical reference method: measure c(k) correlators on a time grid,
    window with phi(v) = (t - |v|)/4 and Fourier transform to omega.

    With psi(v) = exp(-iHv) psi0 the correlators are
    S+(k,v) = <psi(v)| c^dag(k) |[c(k) psi0](v)> (poles at E0 - E_m) and
    S-(k,v) = <[c^dag(k) psi0](v)| c^dag(k) |psi(v)> (poles at E_m - E0).
    trotter_steps = 0 evaluates them exactly on a fine grid from the Lehmann
    lines (`lehmann_lines`); trotter_steps = s steps the same first-order
    splitting of H_sys as the circuit protocol, forward in v with
    exp(-iH t/s), on time points v = m*t/s, m = -s..s, in the particle-number
    sectors n0 - 1, n0, n0 + 1 around the start state's n0
    (`_trotterized_correlators`).  Coarse grids and Trotter error can push
    samples negative; the count is reported in meta["negative_samples"].
    """
    omegas = _omega_grid(omegas)
    if config.trotter_steps == 0:
        # S+(k,v) = sum_m |<m|c(k)|E0>|^2 e^{iv(E0 - E_m)}, and S- over
        # |<m|c^dag(k)|E0>|^2 e^{iv(E_m - E0)}: the weights and centers of the lines
        vgrid = np.linspace(-config.t, config.t, 1601)
        splus, sminus = (np.stack([weights @ np.exp(1j * np.outer(centers, vgrid))
                                   for centers, weights in zip(lines.centers, lines.weights)])
                         for lines in lehmann_lines(config))
    else:
        vgrid, splus, sminus = _trotterized_correlators(config)
    return _windowed_baseline(config, omegas, vgrid, splus, sminus, return_parts)


def _neighbour_sectors(n: int, state: tuple) -> tuple[sector.Basis, np.ndarray]:
    """The basis of the sectors n0 - 1, n0, n0 + 1 (those in 0..n) around the
    system start state (n0, amps), and the state over it."""
    n0, amps = state
    basis = sector.Basis(n, [k for k in (n0 - 1, n0, n0 + 1) if 0 <= k <= n])
    psi = np.zeros(len(basis), dtype=complex)
    psi[basis.particle_numbers() == n0] = amps
    return basis, psi


def _trotterized_correlators(config: ProtocolConfig, state: tuple | None = None) -> tuple:
    """(vgrid, S+, S-) of the Trotterized baseline from the system start
    state (n0, amps), built here when None, S+-[k, v] on the time points vgrid.

    The columns [psi0, c(k) psi0 .., c^dag(k) psi0 ..] lie in the sectors
    n0, n0 - 1 and n0 + 1 and step as one batch over their union, one step
    program per time point; then c(k) psi(v) and c^dag(k) psi(v) come from one
    `sector.annihilate` and one `sector.create` over all time points.
    """
    n = config.n_sites
    steps = config.trotter_steps
    if state is None and config.interaction != 0:
        state = _system_state(config)
    # sized before a free chain's state is built (n0 is its filled-mode count);
    # per time point: the 2N + 1 evolved columns, and up to three N-column
    # temporaries of one sector.annihilate or create call and its conjugate
    n0 = int((config.rho() > 0.5).sum()) if state is None else state[0]
    size = sum(math.comb(n, k) for k in (n0 - 1, n0, n0 + 1) if 0 <= k <= n)
    vgrid = np.linspace(-config.t, config.t, 2 * steps + 1)
    _require_memory(16 * size * len(vgrid) * (5 * n + 1),
                    f"the Trotterized baseline at N = {n}, {steps} steps would hold "
                    f"{len(vgrid)} batches over {size} sector states")
    basis, psi = _neighbour_sectors(n, _system_state(config) if state is None else state)
    states = np.empty((len(vgrid), len(basis), 2 * n + 1), dtype=complex)
    states[steps] = np.concatenate(
        [psi[:, None], sector.annihilate(basis, psi).T, sector.create(basis, psi).T], axis=1)
    # from v = 0 forward (d = 1) to v = t and backward to v = -t; a step of
    # exp(-iH dt) is _system_step's exp(+iH dt) at -dt
    for d in (1, -1):
        step = sector.compile_circuit(_system_step(config, -d * config.t / steps), basis)
        for iv in range(steps + d, steps + d * (steps + 1), d):
            states[iv] = states[iv - d]
            sector.run_program(step, states[iv])
    psis = states[:, :, 0].T
    splus = np.einsum("kiv,vik->kv", sector.annihilate(basis, psis).conj(), states[:, :, 1:n + 1])
    sminus = np.einsum("vik,kiv->kv", states[:, :, n + 1:].conj(), sector.create(basis, psis))
    return vgrid, splus, sminus


def _windowed_baseline(config: ProtocolConfig, omegas: np.ndarray, vgrid: np.ndarray,
                       splus: np.ndarray, sminus: np.ndarray, return_parts: bool = False):
    """The baseline grid from the correlators S+-[k, v] on the time points vgrid."""
    ks = config.momenta()
    window = (config.t - np.abs(vgrid)) / 4
    weights = _simpson_weights(vgrid)
    phase = np.exp(-1j * np.outer(omegas, vgrid))
    plus_vals = (phase[None, :, :] * (window * weights * splus)[:, None, :]).sum(axis=2).real
    minus_vals = (phase[None, :, :] * (window * weights * sminus)[:, None, :]).sum(axis=2).real
    combined = plus_vals + minus_vals
    meta = {"config": config.snapshot(),
            "negative_samples": int((combined < -1e-12).sum()),
            "time_points": len(vgrid)}
    grid = SpectralGrid(ks, omegas, combined, "dynamical-correlation", meta)
    if return_parts:
        return grid, SpectralGrid(ks, omegas, plus_vals, "dyn-corr-plus", meta), \
            SpectralGrid(ks, omegas, minus_vals, "dyn-corr-minus", meta)
    return grid


def _simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a uniform grid with an odd point count."""
    m = len(grid)
    h = grid[1] - grid[0]
    w = np.ones(m)
    w[1:-1:2] = 4
    w[2:-1:2] = 2
    return w * (h / 3)


def lehmann_lines(config: ProtocolConfig) -> tuple[DeltaLineSpectrum, DeltaLineSpectrum]:
    """Exact A+/A- delta lines from the number-sector spectrum of H_sys."""
    spectrum = _system_spectrum(config)
    return _lehmann_lines(config, spectrum, _system_state(config, spectrum))


def _lehmann_lines(config: ProtocolConfig, spectrum: list,
                   state: tuple) -> tuple[DeltaLineSpectrum, DeltaLineSpectrum]:
    """`lehmann_lines` from `_system_spectrum` and the start state (n0, amps).

    A+ has lines at E0 - E_m of weight |<m|c(k)|psi0>|^2 over the eigenstates
    m of the sector n0 - 1, A- at E_m - E0 of weight |<m|c^dag(k)|psi0>|^2
    over those of n0 + 1: one `sector.annihilate` and one `sector.create`
    over the three sectors, for every k at once.
    """
    n = config.n_sites
    n0, amps = state
    basis, psi = _neighbour_sectors(n, state)
    numbers = basis.particle_numbers()
    w, v = spectrum[n0]
    e0 = float(w @ np.abs(v.T @ amps) ** 2)    # <psi0|H|psi0>; H is real, so is v
    ks = config.momenta()
    lines = []
    for apply, m, sign in ((sector.annihilate, n0 - 1, 1), (sector.create, n0 + 1, -1)):
        w, v = spectrum[m] if 0 <= m <= n else (np.zeros(0), np.zeros((0, 0)))
        weights = np.abs(apply(basis, psi)[:, numbers == m] @ v) ** 2
        keep = weights > 1e-14
        lines.append(DeltaLineSpectrum(ks, [sign * (e0 - w[row]) for row in keep],
                                       [wk[row] for wk, row in zip(weights, keep)]))
    return tuple(lines)


def reference_windowed_spectral(config: ProtocolConfig, omegas) -> SpectralGrid:
    """Exact ((A+ + A-) * phi_hat) via Lehmann lines and the analytic kernel."""
    return _windowed_reference(config, _omega_grid(omegas), lehmann_lines(config))


def _windowed_reference(config: ProtocolConfig, omegas: np.ndarray, lines: tuple) -> SpectralGrid:
    """`reference_windowed_spectral` from the (A+, A-) Lehmann lines."""
    plus, minus = lines
    kern = Kernel(config.t)
    a = convolve_kernel(plus, kern, omegas)
    b = convolve_kernel(minus, kern, omegas)
    return SpectralGrid(a.k, a.omega, a.values + b.values, "windowed-reference",
                        {"config": config.snapshot()})


# --------------------------------------------------------------------------
# Trotter comparison (error-versus-steps tables)
# --------------------------------------------------------------------------

def least_squares_scale(values: np.ndarray, reference: np.ndarray) -> float:
    denom = float((values * values).sum())
    if denom == 0:
        return 0.0
    return float((values * reference).sum() / denom)


def environment_method_grid(config: ProtocolConfig, omegas) -> SpectralGrid:
    """A-combined environment readout: empty n(k) plus full 1 - n(k).

    The two fillings share every evolution gate and sit in disjoint
    particle-number sectors, so they run as one vector over the union of
    their sectors (`_run_trotter`).
    """
    omegas = _omega_grid(omegas)
    occ = _run_trotter(config, omegas, ("empty", "full"), [config.trotter_steps])[0]
    return _environment_grid(config, omegas, occ)


def _environment_grid(config: ProtocolConfig, omegas: np.ndarray, occ: np.ndarray) -> SpectralGrid:
    """`environment_method_grid` from the `_run_trotter` occupations of its
    empty and full fillings at config's step count."""
    vals_e, vals_f = occ[..., 0], 1 - occ[..., 1]
    meta = {"config": config.snapshot(),
            "empty_min": float(vals_e.min()), "empty_max": float(vals_e.max()),
            "full_min": float(vals_f.min()), "full_max": float(vals_f.max())}
    return SpectralGrid(config.momenta(), omegas, vals_e + vals_f,
                        "environment-combined", meta)


def compare_trotter(config: ProtocolConfig, omegas, step_counts) -> dict:
    """Fig.-style comparison: per-step-count average/max error of the scaled
    environment method and dynamical-correlation baseline against the exact
    windowed spectral function.

    step_counts holds at least one integer >= 1, and N must have an FFFT
    readout; both are checked before any work.  H_sys is diagonalized once:
    its number-sector spectrum and the start state built from it serve the
    reference and both grids of every step count.
    """
    omegas = _omega_grid(omegas)
    counts = list(step_counts) if np.iterable(step_counts) else []
    if not counts or not all(is_integer(s, 1) for s in counts):
        raise ValueError(f"step_counts must be positive integers, at least one, "
                         f"got {step_counts!r}")
    _require_readout(config.n_sites)
    spectrum = _system_spectrum(config)
    state = _system_state(config, spectrum)
    ref = _windowed_reference(config, omegas, _lehmann_lines(config, spectrum, state)).values
    occs = _run_trotter(config, omegas, ("empty", "full"), counts, state=state)
    rows = []
    for steps, occ in zip(counts, occs):
        cfg = replace(config, trotter_steps=steps)
        env = _environment_grid(cfg, omegas, occ)
        base = _windowed_baseline(cfg, omegas, *_trotterized_correlators(cfg, state))
        s_env = least_squares_scale(env.values, ref)
        s_base = least_squares_scale(base.values, ref)
        err_env = np.abs(s_env * env.values - ref)
        err_base = np.abs(s_base * base.values - ref)
        rows.append({
            "steps": int(steps),
            "env_avg_error": float(err_env.mean()),
            "env_max_error": float(err_env.max()),
            "base_avg_error": float(err_base.mean()),
            "base_max_error": float(err_base.max()),
            "env_sample_min": min(env.meta["empty_min"], env.meta["full_min"]),
            "env_sample_max": max(env.meta["empty_max"], env.meta["full_max"]),
            "base_negative_samples": base.meta["negative_samples"],
        })
    return {"config": config.snapshot(), "omegas": omegas.tolist(), "rows": rows}

"""The oracle comparisons, shared by `fermispec verify` and the test suite.

Each comparison is a function of the case it checks (circuits, sizes and
strategies, graphs with their syntheses, configs plus an omega grid) and
returns a `Result` whose failing detail names the failing case.  `CHECKS`
runs the battery's cases; the tests run the same comparisons on their own.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuits import Circuit, cz, two_qubit_count
from .czgraph import decimate, graph_from_edges, verify_equivalence
from .fft import (InterleaveStrategy, fft_circuit, interleave_circuit,
                  interleave_cz_graph, interleave_permutation,
                  single_particle_transfer)
from .gaussian import dft_matrix
from .protocol import (ProtocolConfig, _readout_circuit, _sector_start, _system_state,
                       broadening_and_ghosts, nk_exact_free, nk_gaussian,
                       strong_coupling_leading, trotter_step_circuit)
from . import sector
from .statevector import circuit_unitary, run_circuit, unitaries_equal_up_to_phase
from .tableau import tableau_of


class Result(NamedTuple):
    """(passed, detail); false when failed, so `assert comparison(...)` works."""
    passed: bool
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def fft_circuits(sizes):
    """The compiled FFFT of each (N, radix) in every interleave strategy; the
    imported listings are radix 3 only."""
    for n, radix in sizes:
        for strategy in InterleaveStrategy:
            if strategy is not InterleaveStrategy.IMPORTED_SEQUENCE or radix == 3:
                yield fft_circuit(n, radix, strategy)


def fft_matches_dft(circuits, tol: float) -> Result:
    """The single-particle transfer of each FFFT circuit is the DFT up to a phase."""
    for c in circuits:
        n = c.num_qubits
        if not unitaries_equal_up_to_phase(single_particle_transfer(c), dft_matrix(n), tol):
            return Result(False, f"N={n} strategy={c.meta.get('strategy')} transfer != DFT")
    return Result(True, "all sizes and strategies match the DFT")


def base_gate_counts(f2: Circuit, f3: Circuit) -> Result:
    """The radix-2 and radix-3 base transforms use 2 and 6 two-qubit gates."""
    c2, c3 = two_qubit_count(f2), two_qubit_count(f3)
    return Result(c2 == 2 and c3 == 6, f"F2 count={c2}, F3 count={c3}")


def interleave_matches_graph(sizes, strategies) -> Result:
    """Each strategy's interleave of each (N, radix) has the tableau of its
    inversion CZ graph."""
    for n, radix in sizes:
        perm = interleave_permutation(n, radix)
        want = interleave_cz_graph(perm).tableau()
        for strategy in strategies:
            if tableau_of(interleave_circuit(perm, strategy)) != want:
                return Result(False, f"N={n} {strategy.value} tableau mismatch")
    return Result(True, "every strategy matches the inversion graph")


def random_cz_graphs(seed: int, count: int, max_qubits: int, max_edges: int):
    """`count` seeded random CZ graphs on 2..max_qubits qubits, each with a
    uniformly drawn number (at most max_edges) of distinct edges."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_qubits + 1))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = int(rng.integers(0, min(max_edges, len(pairs)) + 1))
        sel = rng.choice(len(pairs), size=m, replace=False) if m else []
        yield graph_from_edges(n, [pairs[i] for i in sel])


def decimation_sound(syntheses, dense_tol: float | None, gates_per_edge: int = 1) -> Result:
    """Each (graph, circuit) synthesis has the graph's tableau and, unless
    dense_tol is None, its dense CZ unitary; it takes at most gates_per_edge
    two-qubit gates and one decimation step per edge."""
    for trial, (g, c) in enumerate(syntheses):
        case = f"trial {trial} ({g.num_qubits} qubits, {g.num_edges} edges)"
        if not verify_equivalence(c, g):
            return Result(False, f"{case}: tableau mismatch")
        layer = Circuit(g.num_qubits, tuple(cz(a, b) for (a, b) in sorted(g.edges)))
        if dense_tol is not None and not unitaries_equal_up_to_phase(
                circuit_unitary(c), circuit_unitary(layer), dense_tol):
            return Result(False, f"{case}: dense mismatch")
        gates, steps = two_qubit_count(c), c.meta.get("steps", 0)
        if gates > gates_per_edge * g.num_edges or steps > g.num_edges:
            return Result(False, f"{case}: {gates} gates in {steps} steps")
    return Result(True, "every synthesis is sound")


def grids_match(reference, candidate, configs, omegas, tol: float, what: str) -> Result:
    """reference(config, omegas) and candidate(config, omegas), two
    SpectralGrids, differ by less than tol for each config; `what` names the
    difference."""
    worst = 0.0
    for cfg in configs:
        d = np.max(np.abs(reference(cfg, omegas).values - candidate(cfg, omegas).values))
        if not d < tol:
            return Result(False, f"N={cfg.n_sites}, nu={cfg.nu:g}, {cfg.environment} "
                                 f"environment: {what} = {d:.2e}")
        worst = max(worst, d)
    return Result(True, f"{what} = {worst:.2e}")


def gaussian_matches_closed_form(configs, omegas, tol: float) -> Result:
    """The Gaussian simulation against the free-fermion closed form."""
    return grids_match(nk_exact_free, nk_gaussian, configs, omegas, tol,
                       "max |closed form - Gaussian|")


def strong_coupling_exact(configs, omegas, tol: float) -> Result:
    """At nu = 0 the Gaussian simulation equals the strong-coupling formula."""
    return grids_match(nk_gaussian, strong_coupling_leading, configs, omegas, tol,
                       "nu=0 max deviation")


def ghost_ratio_matches(epsilon: float, t: float, want: float, tol: float) -> Result:
    """The first ghost-band ratio r at (epsilon, t) is `want`."""
    r = broadening_and_ghosts(epsilon, t)["ratio_r"]
    if abs(r - want) < tol:
        return Result(True, f"r={r:.6f}")
    return Result(False, f"eps={epsilon:g}, t={t:g}: r={r:.6f}, want {want:.6f}")


def sector_matches_gates(cases, tol: float) -> Result:
    """For each (circuits, basis, psi), the circuits' sector programs run on
    psi (over the basis, with or without a trailing batch axis) match their
    gate-level statevector run on psi placed in the dense register."""
    worst = 0.0
    for i, (circuits, basis, psi) in enumerate(cases):
        n = basis.num_qubits
        dense = np.zeros((2 ** n,) + psi.shape[1:], dtype=complex)
        dense[basis.bits] = psi
        want = dense.reshape((2,) * n + psi.shape[1:])
        got = psi.copy()
        for c in circuits:
            want = run_circuit(c, want)
            sector.run_program(sector.compile_circuit(c, basis), got)
        d = float(np.max(np.abs(got - want.reshape(dense.shape)[basis.bits])))
        if not d < tol:
            return Result(False, f"case {i} ({len(basis)} of {2 ** n} states): "
                                 f"max |sector - gates| = {d:.1e}")
        worst = max(worst, d)
    return Result(True, f"max |sector - gates| = {worst:.1e}")


def _summary(result: Result, line: str) -> Result:
    """A pass reported as `line`, its {} the detail; a failure keeps its detail."""
    return Result(result.passed, line.format(result.detail) if result else result.detail)


def _check_gaussian_vs_exact() -> Result:
    rho = np.random.default_rng(7).random(16)
    configs = [ProtocolConfig(16, epsilon=0.4, t=4.0, nu=1.0, environment=env,
                              initial_state=rho) for env in ("empty", "full")]
    return gaussian_matches_closed_form(configs, np.linspace(-3, 3, 9), 1e-10)


def _check_trotter_kernels() -> Result:
    """The Trotter step and the readout on the full basis and on the sectors
    the protocol runs in."""
    rng = np.random.default_rng(5)
    cases = []
    for n, nu in ((3, -1.0), (4, 0.8)):
        cfg = ProtocolConfig(n, 0.3, omega=0.7, nu=nu, interaction=2.3)
        circuits = (trotter_step_circuit(cfg, 0.37), _readout_circuit(n))
        in_sectors = _sector_start(cfg, ("empty", "full"), _system_state(cfg))[0]
        for basis in (sector.Basis(2 * n), in_sectors):
            psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            cases.append((circuits, basis, psi))
    return _summary(sector_matches_gates(cases, 1e-12),
                    "N=3,4 V=2.3, full basis and ground-state sectors: {}")


CHECKS = [
    ("fft-dft-equivalence", lambda: fft_matches_dft(
        fft_circuits([(2, 2), (3, 3), (4, 2), (8, 2), (9, 3), (27, 3)]), 1e-9)),
    ("base-gate-counts", lambda: base_gate_counts(fft_circuit(2, 2), fft_circuit(3, 3))),
    ("interleave-tableau-equivalence", lambda: _summary(
        interleave_matches_graph([(9, 3), (27, 3)], [s for s in InterleaveStrategy
                                                     if s is not InterleaveStrategy.LOCAL_FSWAP]),
        "ladder, decimated and imported all match the inversion graph")),
    ("graph-decimation-soundness", lambda: _summary(
        decimation_sound([(g, decimate(g)) for g in random_cz_graphs(20240601, 20, 8, 12)],
                         dense_tol=1e-9),
        "20 random graphs: tableau + dense + never-worse")),
    ("gaussian-vs-closed-form", _check_gaussian_vs_exact),
    ("strong-coupling-exactness", lambda: strong_coupling_exact(
        [ProtocolConfig(10, epsilon=0.6, t=3.0, nu=0.0, initial_state=np.linspace(0, 1, 10))],
        np.linspace(-2, 2, 7), 1e-12)),
    ("ghost-band-ratio", lambda: _summary(
        ghost_ratio_matches(np.pi / 5, 5.0, 1 / 9, 1e-12), "eps*t=pi gives {}")),
    ("trotter-kernel-vs-gates", _check_trotter_kernels),
]


def run_all(verbose: bool = True) -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return results

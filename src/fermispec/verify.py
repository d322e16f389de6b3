"""Oracle-equivalence battery behind the `verify` CLI subcommand.

Each check returns (name, passed, detail); the battery is a fast subset of
the full test suite, meant as a self-contained consistency gate.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, cz, two_qubit_count
from .czgraph import decimate, graph_from_edges, verify_equivalence
from .fft import (InterleaveStrategy, fft_circuit, interleave_circuit,
                  interleave_cz_graph, interleave_permutation,
                  single_particle_transfer)
from .gaussian import dft_matrix
from .protocol import (ProtocolConfig, _readout_circuit, _sector_start,
                       broadening_and_ghosts, nk_exact_free, nk_gaussian,
                       strong_coupling_leading, trotter_step_circuit)
from . import sector
from .statevector import circuit_unitary, run_circuit, unitaries_equal_up_to_phase
from .tableau import tableau_of


def _check_fft_transfers():
    for (n, r) in [(2, 2), (3, 3), (4, 2), (8, 2), (9, 3), (27, 3)]:
        for strat in InterleaveStrategy:
            if strat is InterleaveStrategy.IMPORTED_SEQUENCE and r != 3:
                continue
            c = fft_circuit(n, r, strat)
            if not unitaries_equal_up_to_phase(single_particle_transfer(c),
                                               dft_matrix(n), 1e-9):
                return False, f"N={n} strategy={strat.value} transfer != DFT"
    return True, "all sizes and strategies match the DFT"


def _check_base_counts():
    c2 = two_qubit_count(fft_circuit(2, 2))
    c3 = two_qubit_count(fft_circuit(3, 3))
    ok = (c2 == 2 and c3 == 6)
    return ok, f"F2 count={c2}, F3 count={c3}"


def _check_interleave_equivalence():
    for n in (9, 27):
        p = interleave_permutation(n, 3)
        g = interleave_cz_graph(p)
        for strat in (InterleaveStrategy.CX_LADDER,
                      InterleaveStrategy.GRAPH_DECIMATED,
                      InterleaveStrategy.IMPORTED_SEQUENCE):
            c = interleave_circuit(p, strat)
            if tableau_of(c) != g.tableau():
                return False, f"N={n} {strat.value} tableau mismatch"
    return True, "ladder, decimated and imported all match the inversion graph"


def _check_decimation_random():
    rng = np.random.default_rng(20240601)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        max_edges = n * (n - 1) // 2
        m = int(rng.integers(0, min(12, max_edges) + 1))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        sel = rng.choice(len(pairs), size=m, replace=False) if m else []
        g = graph_from_edges(n, [pairs[i] for i in sel])
        c = decimate(g)
        if not verify_equivalence(c, g):
            return False, f"trial {trial}: tableau mismatch"
        ug = circuit_unitary(Circuit(n, tuple(cz(a, b) for (a, b) in sorted(g.edges))))
        if not unitaries_equal_up_to_phase(circuit_unitary(c), ug, 1e-9):
            return False, f"trial {trial}: dense mismatch"
        if two_qubit_count(c) > g.num_edges:
            return False, f"trial {trial}: count {two_qubit_count(c)} > edges {g.num_edges}"
    return True, "20 random graphs: tableau + dense + never-worse"


def _check_gaussian_vs_exact():
    rng = np.random.default_rng(7)
    rho = rng.random(16)
    omegas = np.linspace(-3, 3, 9)
    worst = 0.0
    for env in ("empty", "full"):
        cfg = ProtocolConfig(16, epsilon=0.4, t=4.0, nu=1.0, environment=env,
                             initial_state=rho)
        d = np.max(np.abs(nk_exact_free(cfg, omegas).values
                          - nk_gaussian(cfg, omegas).values))
        worst = max(worst, d)
    return worst < 1e-10, f"max |closed form - Gaussian| = {worst:.2e}"


def _check_strong_coupling():
    rho = np.linspace(0, 1, 10)
    omegas = np.linspace(-2, 2, 7)
    cfg = ProtocolConfig(10, epsilon=0.6, t=3.0, nu=0.0, initial_state=rho)
    d = np.max(np.abs(nk_gaussian(cfg, omegas).values
                      - strong_coupling_leading(cfg, omegas=omegas).values))
    return d < 1e-12, f"nu=0 max deviation = {d:.2e}"


def _check_ghost_formula():
    r = broadening_and_ghosts(np.pi / 5, 5.0)["ratio_r"]
    ok = abs(r - 1 / 9) < 1e-12
    return ok, f"eps*t=pi gives r={r:.6f}"


def _check_trotter_kernels():
    """The compiled sector programs of the Trotter step and the readout
    against the emitted gate-level circuits, on the full basis and on the
    sectors the protocol runs in."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for n, nu in ((3, -1.0), (4, 0.8)):
        cfg = ProtocolConfig(n, 0.3, omega=0.7, nu=nu, interaction=2.3)
        circuits = (trotter_step_circuit(cfg, 0.37), _readout_circuit(n))
        for basis in (sector.Basis(2 * n), _sector_start(cfg, ("empty", "full"))[0]):
            got = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            want = np.zeros((2,) * (2 * n), dtype=complex)
            want.ravel()[basis.bits] = got
            for c in circuits:
                want = run_circuit(c, want)
                sector.run_program(sector.compile_circuit(c, basis), got)
            worst = max(worst, float(np.max(np.abs(got - want.ravel()[basis.bits]))))
    return worst < 1e-12, (f"N=3,4 V=2.3, full basis and ground-state sectors: "
                           f"max |sector - gates| = {worst:.1e}")


CHECKS = [
    ("fft-dft-equivalence", _check_fft_transfers),
    ("base-gate-counts", _check_base_counts),
    ("interleave-tableau-equivalence", _check_interleave_equivalence),
    ("graph-decimation-soundness", _check_decimation_random),
    ("gaussian-vs-closed-form", _check_gaussian_vs_exact),
    ("strong-coupling-exactness", _check_strong_coupling),
    ("ghost-band-ratio", _check_ghost_formula),
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

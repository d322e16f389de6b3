"""The four workloads: seeded inputs, the public calls the CLI makes, oracle checks
and a reference kernel.

Each workload is `make_inputs(seed) -> dict`, `run(inputs, check) -> dict` and
`reference()`.
`run` calls fermispec only through module attributes (`protocol.nk_gaussian`,
never a name imported at load time), so the patches made by the traced run
see every call.  `check(name, ok)` records one oracle check; a failed or
raising check is counted, never fatal.  `run` returns the exact outputs the
benchmark reports besides time (gate counts, Trotter error).

`reference()` is fixed code that does not call fermispec and does the same
kind of work as the workload: interpreted integer loops, strided elementwise
complex updates, or LAPACK.  The benchmark times it in every worker so that
`wall_rel`, the workload's time in units of it, cancels the machine's speed,
which on a shared host swings by tens of percent from one minute to the next.
"""
from __future__ import annotations

import math

import numpy as np

from fermispec import circuits, czgraph, fft, gaussian, protocol

# two-qubit count and depth of the graph-decimated compiles at the seed commit;
# a compile that emits more gates or more depth fails its check
COMPILE_FFT_CASES = ((27, 3, 397, 64), (64, 2, 1314, 163))


def _rng(stream: int, seed: int) -> np.random.Generator:
    """Generator for one workload's inputs; `stream` keeps the workloads' draws apart."""
    return np.random.default_rng([seed, stream])


# --------------------------------------------------------------------------
# trotter-v4: compare_trotter on the interacting chain
# --------------------------------------------------------------------------

def trotter_inputs(seed: int) -> dict:
    rng = _rng(1, seed)
    return {
        "config": protocol.ProtocolConfig(8, epsilon=0.1, t=5.0, nu=-1.0,
                                          interaction=4.0),
        "omegas": np.sort(rng.uniform(-3.0, 3.0, 4)),
        "step_counts": (2, 8),
    }


def trotter_run(inputs: dict, check) -> dict:
    table = protocol.compare_trotter(inputs["config"], inputs["omegas"],
                                     inputs["step_counts"])
    for row in table["rows"]:
        lo, hi = row["env_sample_min"], row["env_sample_max"]
        s = row["steps"]
        check(f"steps={s}: environment samples finite", math.isfinite(lo) and math.isfinite(hi))
        check(f"steps={s}: environment samples in [0, 1]", lo >= -1e-12 and hi <= 1 + 1e-12)
        check(f"steps={s}: errors finite",
              all(math.isfinite(row[k]) for k in ("env_avg_error", "base_avg_error")))
    largest = max(table["rows"], key=lambda r: r["steps"])
    return {"trotter_err": largest["env_avg_error"]}


# --------------------------------------------------------------------------
# compile-fft: graph-decimated FFFT compiles, certified against the DFT
# --------------------------------------------------------------------------

def compile_inputs(seed: int) -> dict:
    return {"cases": COMPILE_FFT_CASES}


def compile_run(inputs: dict, check) -> dict:
    gates = depth = 0
    for n, radix, max_gates, max_depth in inputs["cases"]:
        plan = fft.FFTPlan(n, radix, fft.InterleaveStrategy.GRAPH_DECIMATED)
        c = fft.compile_fft(plan)
        transfer = fft.single_particle_transfer(c)
        err = float(np.max(np.abs(transfer - gaussian.dft_matrix(n))))
        check(f"N={n}: transfer equals the DFT to 1e-9", err < 1e-9)
        g, d = circuits.two_qubit_count(c), circuits.two_qubit_depth(c)
        check(f"N={n}: {g} two-qubit gates <= {max_gates}", g <= max_gates)
        check(f"N={n}: two-qubit depth {d} <= {max_depth}", d <= max_depth)
        gates += g
        depth += d
    return {"gates_2q": gates, "depth_2q": depth}


# --------------------------------------------------------------------------
# cz-random: decimation of distinct unstructured graphs
# --------------------------------------------------------------------------

CZ_RANDOM_SHAPES = ((48, 0.3), (36, 0.5))


def cz_inputs(seed: int) -> dict:
    rng = _rng(2, seed)
    graphs = []
    for n, density in CZ_RANDOM_SHAPES:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = rng.choice(len(pairs), round(density * len(pairs)), replace=False)
        graphs.append(czgraph.graph_from_edges(n, [pairs[k] for k in picked]))
    return {"graphs": graphs}


def cz_run(inputs: dict, check) -> dict:
    gates = depth = 0
    for graph in inputs["graphs"]:
        c = czgraph.decimate(graph)
        n, e = graph.num_qubits, graph.num_edges
        check(f"{n} qubits, {e} edges: tableau equal", czgraph.verify_equivalence(c, graph))
        g = circuits.two_qubit_count(c)
        check(f"{n} qubits: {g} two-qubit gates <= {e} edges", g <= e)
        gates += g
        depth += circuits.two_qubit_depth(c)
    return {"gates_2q": gates, "depth_2q": depth}


# --------------------------------------------------------------------------
# spectral-gaussian: continuous-time Gaussian protocol at N = 200
# --------------------------------------------------------------------------

def gaussian_inputs(seed: int) -> dict:
    rng = _rng(3, seed)
    rho = rng.uniform(0.0, 1.0, 200)
    return {
        "configs": [protocol.ProtocolConfig(200, epsilon=math.pi / 5, t=5.0, nu=1.0,
                                            environment=env, initial_state=rho)
                    for env in ("empty", "full")],
        "omegas": [np.sort(rng.uniform(-3.0, 3.0, 12)) for _ in range(2)],
    }


def gaussian_run(inputs: dict, check) -> dict:
    for cfg, omegas in zip(inputs["configs"], inputs["omegas"]):
        grid = protocol.nk_gaussian(cfg, omegas)
        exact = protocol.nk_exact_free(cfg, omegas)
        err = float(np.max(np.abs(grid.values - exact.values)))
        check(f"{cfg.environment} environment: |gaussian - exact| < 1e-10", err < 1e-10)
    return {}


# --------------------------------------------------------------------------
# reference kernels, one per kind of work, each a few tens of milliseconds
# --------------------------------------------------------------------------

def interpreter_reference() -> int:
    """Greedy bitmask scoring over a 48-node adjacency, as decimate does."""
    adj = [(i * 0x9E3779B97F4A7C15) & ((1 << 48) - 1) for i in range(48)]
    best = 0
    for _ in range(75):
        for i in range(48):
            ai, deg = adj[i], adj[i].bit_count()
            for j in range(48):
                best = max(best, (ai ^ adj[j]).bit_count() - deg)
        adj = adj[1:] + adj[:1]
    return best


def strided_reference() -> None:
    """In-place phase updates on half-blocks of a batched 16-qubit state, as gates do."""
    state = np.ones((2,) * 16 + (2,), dtype=complex)
    for _ in range(6):
        for q in range(16):
            half = state[(slice(None),) * q + (1,)]
            half *= -1
            half *= 1j
            half *= -1j


def lapack_reference() -> None:
    """Hermitian eigendecompositions and similarity transforms, as mode_propagator does."""
    h = np.random.default_rng(0).standard_normal((400, 400))
    for t in (1.0, 2.0):
        w, v = np.linalg.eigh(h + h.T)
        (v * np.exp(-1j * t * w)) @ v.T


WORKLOADS = {
    "trotter-v4": (trotter_inputs, trotter_run, strided_reference),
    "compile-fft": (compile_inputs, compile_run, interpreter_reference),
    "cz-random": (cz_inputs, cz_run, interpreter_reference),
    "spectral-gaussian": (gaussian_inputs, gaussian_run, lapack_reference),
}

"""Self-tests of the benchmark itself, not of fermispec.

    python3 perfbench/selftest.py

Runs two traced workers per workload (under a minute) and checks that:
  * each named counter is non-zero on the workloads predicted to exercise it
    and zero on the others, so a later rebinding fails here instead of
    reading zero;
  * every count repeats exactly across two runs of the same seed;
  * a second seed changes the cz-random graphs and the spectral-gaussian
    inputs but not their sizes;
  * the traced run patched the by-name binding sites in `protocol` and `fft`;
  * BENCHMARK.json names exactly the metrics run.py prints.
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import os
import sys
import time

import run

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# counter -> workloads on which it must be non-zero; it must be zero on the rest
PREDICTED_NONZERO = {
    "statevector.gates": {"trotter-v4"},
    "statevector.bytes_computed": {"trotter-v4"},
    "statevector.jw_ops": {"trotter-v4"},
    "protocol.eigh_calls": {"trotter-v4"},
    "fft.interleave_calls": {"trotter-v4", "compile-fft"},
    "gaussian.propagator_calls": {"spectral-gaussian"},
    "gaussian.sector_gates": {"compile-fft"},
    "czgraph.decimate_calls": {"compile-fft", "cz-random"},
    "czgraph.decimate_steps": {"compile-fft", "cz-random"},
    "tableau.calls": {"compile-fft", "cz-random"},
    "tableau.gates": {"compile-fft", "cz-random"},
    "circuits.gates_2q": {"compile-fft", "cz-random"},
    "circuits.depth_2q": {"compile-fft", "cz-random"},
}
BINDING_SITES = (
    "fermispec.protocol.mode_propagator", "fermispec.protocol.evolve_gaussian",
    "fermispec.protocol.fft_circuit", "fermispec.protocol.interleave_circuit",
    "fermispec.fft.decimate", "fermispec.fft.tableau_of",
    "fermispec.fft.extract_mode_transform",
)

COUNT_UNITS = ("count", "B")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def traced_counts(workload: str, seed: int) -> tuple[dict, list]:
    r = run.spawn(["--workload", workload, "--seed", str(seed), "--trace", "1"],
                  time.monotonic() + 300)
    expect(r["failed"] == 0, f"{workload}: oracle checks pass ({r['failures']})")
    counts = {k: v for k, v in r["layers"].items() if run.PER_LAYER[k] in COUNT_UNITS}
    for key, name in run.EXACT.items():
        if run.PER_LAYER[name] in COUNT_UNITS:
            counts[name] = r["exact"].get(key, 0)
    return counts, r["patched_sites"]


def check_counters(seed: int) -> None:
    for w in run.WORKLOADS:
        first, sites = traced_counts(w, seed)
        second, _ = traced_counts(w, seed)
        for name, nonzero_on in PREDICTED_NONZERO.items():
            want = "non-zero" if w in nonzero_on else "zero"
            expect((first[name] != 0) == (w in nonzero_on),
                   f"{w}: {name} = {first[name]} is {want}")
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        expect(not diff, f"{w}: counts repeat across two runs {diff or ''}")
        calls, distinct = first["czgraph.decimate_calls"], first["czgraph.decimate_distinct"]
        if w == "compile-fft":
            expect(distinct < calls, f"{w}: {distinct} distinct graphs < {calls} decimate calls")
        if w == "cz-random":
            expect(distinct == calls, f"{w}: every decimated graph is distinct")
        missing = [s for s in BINDING_SITES if s not in sites]
        expect(not missing, f"{w}: by-name binding sites patched {missing or ''}")


def check_seeds() -> None:
    a, b = workloads.cz_inputs(1), workloads.cz_inputs(2)
    shape = [(g.num_qubits, g.num_edges) for g in a["graphs"]]
    expect(shape == [(g.num_qubits, g.num_edges) for g in b["graphs"]],
           f"cz-random: sizes {shape} do not depend on the seed")
    expect(all(x.edges != y.edges for x, y in zip(a["graphs"], b["graphs"])),
           "cz-random: a second seed changes every graph")
    expect(all(x.edges == y.edges for x, y in zip(a["graphs"], workloads.cz_inputs(1)["graphs"])),
           "cz-random: the same seed gives the same graphs")

    a, b = workloads.gaussian_inputs(1), workloads.gaussian_inputs(2)
    rho_a, rho_b = (np.asarray(x["configs"][0].initial_state) for x in (a, b))
    expect(rho_a.shape == rho_b.shape and [o.shape for o in a["omegas"]]
           == [o.shape for o in b["omegas"]],
           "spectral-gaussian: sizes do not depend on the seed")
    expect(not np.array_equal(rho_a, rho_b)
           and not any(np.array_equal(x, y) for x, y in zip(a["omegas"], b["omegas"])),
           "spectral-gaussian: a second seed changes rho_k and every omega grid")


def check_manifest() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        expect(listed == printed, f"BENCHMARK.json {key} matches run.py")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")


if __name__ == "__main__":
    check_manifest()
    check_seeds()
    check_counters(seed=7)
    print(f"{len(failures)} failed")
    sys.exit(1 if failures else 0)

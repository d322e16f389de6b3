"""fermispec benchmark: time to a checked result on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/fermispec`.  After one
set-up-only warm-up process, the run starts fresh worker processes
(perfbench/worker.py), each running the workload once on the inputs made from
`--seed`, until `--seconds` have passed and at least MIN_SAMPLES have been
taken.  Every output is checked against an oracle inside the worker.

--trace 0 reports the end-to-end metrics as medians over the workers;
wall_rel is the median wall time over the median time of the workload's
reference kernel (workloads.py), timed in the same workers.
--trace 1 alternates untraced and traced workers and reports the traced
per-layer medians, with the tracing overhead as traced minus untraced median
wall time.

Human-readable lines (provenance, samples, error rate) come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("trotter-v4", "compile-fft", "cz-random", "spectral-gaussian")
MIN_SAMPLES = 3
DEADLINE_S = 170.0   # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-vCPU VM, handing LAPACK work to a second thread
# whose vCPU sat idle stalled the first large eigh of a process for up to ~1 s.
BLAS_THREADS = 1

END_TO_END = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "statevector.gates": "count",
    "statevector.gate_s": "s",
    "statevector.gate_s.GIVENS": "s",
    "statevector.gate_s.RZ": "s",
    "statevector.gate_s.CX": "s",
    "statevector.gate_s.FSWAP": "s",
    "statevector.gate_s.CZ": "s",
    "statevector.bytes_computed": "B",
    "statevector.occupations_s": "s",
    "statevector.jw_ops": "count",
    "statevector.jw_ops_s": "s",
    "statevector.self_s": "s",
    "protocol.eigh_calls": "count",
    "protocol.eigh_s": "s",
    "protocol.env_grid_s": "s",
    "protocol.baseline_s": "s",
    "protocol.reference_s": "s",
    "protocol.nk_gaussian_self_s": "s",
    "protocol.trotter_err": "1",
    "protocol.self_s": "s",
    "gaussian.propagator_calls": "count",
    "gaussian.propagator_s": "s",
    "gaussian.evolve_s": "s",
    "gaussian.sector_s": "s",
    "gaussian.sector_gates": "count",
    "gaussian.self_s": "s",
    "fft.compile_self_s": "s",
    "fft.interleave_calls": "count",
    "fft.certify_s": "s",
    "fft.self_s": "s",
    "czgraph.decimate_calls": "count",
    "czgraph.decimate_distinct": "count",
    "czgraph.decimate_distinct_share": "1",
    "czgraph.decimate_s": "s",
    "czgraph.decimate_steps": "count",
    "czgraph.verify_s": "s",
    "czgraph.self_s": "s",
    "tableau.calls": "count",
    "tableau.gates": "count",
    "tableau.s": "s",
    "circuits.gates_2q": "count",
    "circuits.depth_2q": "count",
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# exact outputs of a workload, reported under these per-layer names (0 where not produced)
EXACT = {"gates_2q": "circuits.gates_2q", "depth_2q": "circuits.depth_2q",
         "trotter_err": "protocol.trotter_err"}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout < 1:
        raise RuntimeError("no time left for another worker")
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.realpath(result["fermispec"]) != os.path.realpath(os.path.join(SRC, "fermispec")):
        raise RuntimeError(f"worker imported fermispec from {result['fermispec']}, not {SRC}")
    return result


def source_digest() -> str:
    """sha256 over the paths and contents of the files under src/."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def collect(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    """Untraced and traced worker results of one run."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spawn(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)
    untraced: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        enough = len(untraced) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_SAMPLES)
        now = time.monotonic()
        if enough and (now - t0 >= seconds or now + longest > deadline):
            break
        use_trace = trace and len(traced) < len(untraced)
        args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(use_trace))]
        began = time.monotonic()
        result = spawn(args, deadline)
        longest = max(longest, time.monotonic() - began)
        (traced if use_trace else untraced).append(result)
    return untraced, traced


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "fermispec", "__init__.py")):
        print(f"no fermispec sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    untraced, traced = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    samples = untraced + traced
    attempted = sum(r["attempted"] for r in samples)
    failed = sum(r["failed"] for r in samples)
    failures = sorted({f for r in samples for f in r["failures"]})
    # the same inputs must give the same exact outputs in every worker
    attempted += 1
    if len({json.dumps(r["exact"], sort_keys=True) for r in samples}) != 1:
        failed += 1
        failures.append("exact outputs differ between workers on the same inputs")

    first = samples[0]
    print("provenance " + json.dumps({
        "commit": git_commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS, "blas_threads_seen": first["blas_threads"],
        "numpy": first["numpy"], "blas": first["blas"], "python": platform.python_version(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": len(untraced), "traced_samples": len(traced),
    }, sort_keys=True))
    for r in samples:
        print(f"sample traced={int('layers' in r)} wall_s={r['wall_s']:.4f} "
              f"ref_s={r['ref_s']:.4f} setup_s={r['setup_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f} "
              f"checks={r['attempted']} failed={r['failed']} exact={json.dumps(r['exact'])}")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    for f in failures:
        print(f"FAILED {f}")

    if args.trace:
        layers = {name: median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        for key, name in EXACT.items():
            layers[name] = first["exact"].get(key, 0)
        layers["trace.wall_s"] = median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - median(r["wall_s"] for r in untraced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        wall_rel = median(r["wall_s"] for r in untraced) / median(r["ref_s"] for r in untraced)
        metrics = {"wall_rel": {"value": wall_rel, "unit": END_TO_END["wall_rel"]},
                   **{name: {"value": median(r[name] for r in untraced), "unit": END_TO_END[name]}
                      for name in ("setup_s", "peak_rss_mb")}}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark iteration in a fresh process: set up, run one workload, check it.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

A fresh process per iteration is what a CLI user pays for: import and lazy
set-up happen once per process, and nothing cached by one iteration can speed
up the next.  The BLAS thread variables must be set by the caller (run.py)
before this process starts, because numpy reads them at import.

Prints one JSON object as its last line of standard output.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import fermispec  # noqa: E402
from fermispec import circuits, fft, tableau  # noqa: E402

import workloads  # noqa: E402

REFERENCE_REPEATS = 4


def lazy_setup() -> None:
    """Fill the caches every CLI process fills on first use.

    These are the tableau conjugation table of each Clifford gate kind and the
    shipped 9- and 27-qubit interleave listings.
    """
    kind = circuits.GateKind
    quarter = [q * math.pi / 2 for q in range(4)]
    gates = ([circuits.Gate(k, (0, 1)) for k in (kind.CZ, kind.CX, kind.CY, kind.SWAP, kind.FSWAP)]
             + [circuits.Gate(k, (0,)) for k in (kind.X, kind.Z, kind.S, kind.SDG)]
             + [circuits.rz(a, 0) for a in quarter]
             + [circuits.givens(a, 0, 1) for a in quarter])
    tableau.tableau_of(circuits.Circuit(2, tuple(gates)))
    for n in (9, 27):
        fft.imported_interleave_sequence(n)


def time_reference(reference) -> float:
    """Mean time of REFERENCE_REPEATS calls of a workload's reference kernel."""
    t = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        reference()
    return (time.perf_counter() - t) / REFERENCE_REPEATS


def blas_threads() -> int | None:
    """Threads OpenBLAS actually uses, read from the loaded library; None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_version() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    lazy_setup()
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s, "fermispec": os.path.dirname(fermispec.__file__)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    make_inputs, run, reference = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    failures: list[str] = []
    attempted = 0

    def check(name, ok):
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(name)

    # the reference kernel brackets the workload, outside the traced region
    ref_before = time_reference(reference)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    t = time.perf_counter()
    try:
        exact = run(inputs, check)
    except Exception as exc:  # a raising oracle or workload counts as one failed check
        traceback.print_exc()
        attempted += 1
        failures.append(f"{type(exc).__name__}: {exc}")
        exact = {}
    wall_s = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(wall_s)
        out["patched_sites"] = tracer.patched_sites
    ref_after = time_reference(reference)

    out.update(
        wall_s=wall_s,
        ref_s=(ref_before + ref_after) / 2,
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=len(failures),
        failures=failures,
        exact=exact,
        blas_threads=blas_threads(),
        numpy=np.__version__,
        blas=blas_version(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

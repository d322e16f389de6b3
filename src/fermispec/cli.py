"""Command-line entry point.

Subcommands: compile-fft, optimize-cz, simulate-spectral, compare-trotter,
verify, report.  Every subcommand but verify writes its output, a JSON
sidecar beside it and, with --manifest, a manifest (resolved config, seed,
version, sha256 of each output); identical manifests reproduce
byte-identical files.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .circuits import require_finite_real, two_qubit_count, two_qubit_depth, write_circuit
from .czgraph import decimate, parse_edge_list, verify_equivalence
from .fft import (FFTPlan, InterleaveStrategy, compile_fft, fft_circuit,
                  has_shipped_listing, interleave_circuit, interleave_cz_graph,
                  interleave_permutation)
from .protocol import (ProtocolConfig, compare_trotter, nk_exact_free,
                       nk_gaussian, run_circuit_protocol)
from . import verify as verify_mod


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_safe(obj):
    """obj with numpy scalars and arrays turned into JSON types."""
    return json.loads(json.dumps(obj, default=lambda v: v.tolist()))


def _write_outputs(args, inputs: dict, sidecar: dict, seed: int | None = None) -> None:
    """Write `sidecar` to args.out + ".json" and, with --manifest, the manifest
    of args.command: its inputs, seed, tool version and both files' sha256."""
    side_path = args.out + ".json"
    _write_json(side_path, sidecar)
    if args.manifest:
        _write_json(args.manifest, {
            "subcommand": args.command,
            "config": inputs,
            "seed": seed,
            "tool_version": __version__,
            "outputs": {os.path.basename(p): _sha256(p) for p in (args.out, side_path)},
        })


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


# config keys that are not ProtocolConfig fields: the inputs of the run itself
RUN_KEYS = ("omegas", "method", "step_counts", "shots", "seed")


def _load_protocol_config(path: str) -> tuple[ProtocolConfig, dict] | None:
    """Parse a protocol config file; on a bad file, say why and return None."""
    known = {f.name for f in dataclasses.fields(ProtocolConfig)}
    try:
        with open(path) as fh:
            raw = json.load(fh)
        for key in raw:
            if key not in known.union(RUN_KEYS):
                raise KeyError(key)
        return ProtocolConfig(**{k: raw[k] for k in known if k in raw}), raw
    except KeyError as exc:
        print(f"bad config: unknown or invalid key {exc}", file=sys.stderr)
    except (OSError, TypeError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
    return None


def _cmd_compile_fft(args) -> int:
    strategy = InterleaveStrategy(args.interleave)
    plan = FFTPlan(args.modes, args.radix, strategy, args.depth_penalty)
    circuit = compile_fft(plan)
    write_circuit(circuit, args.out)
    sidecar = {
        "modes": args.modes,
        "radix": args.radix,
        "strategy": strategy.value,
        "depth_penalty": args.depth_penalty,
        "two_qubit_count": two_qubit_count(circuit),
        "two_qubit_depth": two_qubit_depth(circuit),
        "convention": circuit.meta.get("convention"),
        "mode_order": list(circuit.meta.get("mode_order", [])),
    }
    _write_outputs(args, sidecar, sidecar)
    print(f"wrote {args.out}: {sidecar['two_qubit_count']} two-qubit gates, "
          f"depth {sidecar['two_qubit_depth']}")
    return 0


def _cmd_optimize_cz(args) -> int:
    try:
        with open(args.graph) as fh:
            graph = parse_edge_list(fh.read())
        circuit = decimate(graph, args.depth_penalty)
    except (OSError, ValueError) as exc:
        print(f"bad graph: {exc}", file=sys.stderr)
        return 2
    verified = verify_equivalence(circuit, graph)
    if not verified:
        print("internal error: decimated circuit failed tableau verification",
              file=sys.stderr)
        return 2
    write_circuit(circuit, args.out)
    report = {
        "edges_in": graph.num_edges,
        "gates_out": two_qubit_count(circuit),
        "depth_out": two_qubit_depth(circuit),
        "steps": circuit.meta.get("steps", len(circuit.gates)),
        "depth_penalty": args.depth_penalty,
        "tableau_verified": verified,
    }
    _write_outputs(args, dict(report, graph_sha256=_sha256(args.graph)), report)
    print(json.dumps(report))
    return 0


def _cmd_simulate_spectral(args) -> int:
    loaded = _load_protocol_config(args.config)
    if loaded is None:
        return 2
    cfg, raw = loaded
    omegas = raw.get("omegas")
    shots = raw.get("shots", 0)
    seed = raw.get("seed", 0)
    method = raw.get("method", "auto")
    if method == "auto":
        method = "circuit" if cfg.trotter_steps > 0 else "gaussian"
    for key in ("shots", "seed"):
        if key in raw and method != "circuit":
            print(f"bad config: {key} requires the circuit method", file=sys.stderr)
            return 2
    try:
        if method == "exact":
            grid = nk_exact_free(cfg, omegas)
        elif method == "gaussian":
            grid = nk_gaussian(cfg, omegas)
        elif method == "circuit":
            grid = run_circuit_protocol(cfg, omegas, shots=shots, seed=seed)
        else:
            print(f"bad config: unknown method {method!r}", file=sys.stderr)
            return 2
    except ValueError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    grid.to_csv(args.out)
    inputs = dict(cfg.snapshot(), method=method, omegas=grid.omega.tolist(),
                  shots=shots, seed=seed)
    _write_outputs(args, inputs, {"method": grid.method, "config": cfg.snapshot(),
                                  "omegas": inputs["omegas"],
                                  "columns": ["k", "omega", "value", "method"],
                                  "meta": _json_safe(grid.meta)},
                   seed=seed if shots else None)
    print(f"wrote {args.out} ({grid.values.size} samples, method={grid.method})")
    return 0


def _cmd_compare_trotter(args) -> int:
    loaded = _load_protocol_config(args.config)
    if loaded is None:
        return 2
    cfg, raw = loaded
    span = 3.0 * max(abs(cfg.nu), 1.0)
    omegas = raw.get("omegas", np.linspace(-span, span, 26))
    step_counts = raw.get("step_counts", [1, 2, 4, 8, 16, 32])
    try:
        table = compare_trotter(cfg, omegas, step_counts)
    except ValueError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    _write_csv(args.out, ["steps", "env_avg_error", "env_max_error", "base_avg_error",
                          "base_max_error", "env_sample_min", "env_sample_max",
                          "base_negative_samples"], table["rows"])
    _write_outputs(args, dict(cfg.snapshot(), omegas=table["omegas"], step_counts=step_counts),
                   table)
    for row in table["rows"]:
        print(f"steps={row['steps']:4d}  env_avg={row['env_avg_error']:.4e}  "
              f"base_avg={row['base_avg_error']:.4e}  "
              f"base_negatives={row['base_negative_samples']}")
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(verbose=True)
    if args.json:
        _write_json(args.json, [{"name": name, "passed": bool(ok), "detail": detail}
                                for name, ok, detail in results])
    return 0 if all(ok for _, ok, _ in results) else 1


def _cmd_report(args) -> int:
    n, radix = args.modes, args.radix
    rows = []
    perm = interleave_permutation(n, radix)
    graph = interleave_cz_graph(perm)
    for strat in InterleaveStrategy:
        if strat is InterleaveStrategy.IMPORTED_SEQUENCE and not has_shipped_listing(n, radix):
            continue
        inter = interleave_circuit(perm, strat)
        fft = fft_circuit(n, radix, strat)
        rows.append({
            "strategy": strat.value,
            "interleave_two_qubit_count": two_qubit_count(inter),
            "interleave_two_qubit_depth": two_qubit_depth(inter),
            "fft_two_qubit_count": two_qubit_count(fft),
            "fft_two_qubit_depth": two_qubit_depth(fft),
        })
    report = {"modes": n, "radix": radix, "graph_edges": graph.num_edges,
              "rows": rows}
    _write_csv(args.out, ["strategy", "interleave_two_qubit_count", "interleave_two_qubit_depth",
                          "fft_two_qubit_count", "fft_two_qubit_depth"], rows)
    _write_outputs(args, {"modes": n, "radix": radix}, report)
    for row in rows:
        print(f"{row['strategy']:16s} interleave {row['interleave_two_qubit_count']:4d} gates "
              f"/ depth {row['interleave_two_qubit_depth']:3d}   "
              f"fft {row['fft_two_qubit_count']:4d} gates / depth {row['fft_two_qubit_depth']:3d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fermispec")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    # every subcommand but verify writes OUT, its sidecar OUT.json and a manifest
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", required=True, help="output path; the sidecar is OUT.json")
    outputs.add_argument("--manifest", help="also write the run's manifest here")

    c = sub.add_parser("compile-fft", parents=[outputs],
                       help="compile a radix-n fermionic FFT circuit")
    c.add_argument("--modes", type=int, required=True)
    c.add_argument("--radix", type=int, required=True)
    c.add_argument("--interleave", choices=sorted(s.value for s in InterleaveStrategy),
                   default="local-fswap")
    c.add_argument("--depth-penalty", type=float, default=0.5)
    c.set_defaults(func=_cmd_compile_fft)

    c = sub.add_parser("optimize-cz", parents=[outputs],
                       help="synthesize a CZ circuit by graph decimation")
    c.add_argument("--graph", required=True, help="edge-list file, one 'i j' per line")
    c.add_argument("--depth-penalty", type=float, default=0.5)
    c.set_defaults(func=_cmd_optimize_cz)

    c = sub.add_parser("simulate-spectral", parents=[outputs],
                       help="run the spectral-function protocol")
    c.add_argument("--config", required=True, help="JSON config file")
    c.set_defaults(func=_cmd_simulate_spectral)

    c = sub.add_parser("compare-trotter", parents=[outputs],
                       help="error-versus-steps comparison of both methods")
    c.add_argument("--config", required=True, help="JSON config file")
    c.set_defaults(func=_cmd_compare_trotter)

    c = sub.add_parser("verify", help="run the oracle-equivalence suite")
    c.add_argument("--json", metavar="PATH",
                   help="also write the results as a list of {name, passed, detail}")
    c.set_defaults(func=_cmd_verify)

    c = sub.add_parser("report", parents=[outputs],
                       help="gate-count/depth table across interleave strategies")
    c.add_argument("--modes", type=int, default=27)
    c.add_argument("--radix", type=int, default=3)
    c.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "radix" in args:    # compile-fft and report: check the size first
        try:
            FFTPlan(args.modes, args.radix)
        except ValueError as exc:
            print(f"bad plan: {exc}", file=sys.stderr)
            return 2
    if "depth_penalty" in args:    # compile-fft and optimize-cz
        try:
            require_finite_real("depth_penalty", args.depth_penalty)
        except ValueError as exc:
            print(f"bad penalty: {exc}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

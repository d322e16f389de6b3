"""Spans and counters recorded from outside `src/`, around fermispec's public functions.

`install` replaces every module attribute of the loaded `fermispec.*`
modules that is bound to a traced function with a wrapper, so call sites that
imported the function by name (`protocol` binds `mode_propagator`, `fft` binds
`decimate`, ...) are traced too.  `numpy.linalg.eigh` is counted, not spanned:
its time stays in the caller's self time.

A span is `[name, start, end, parent, info]`; `parent` is the index of the
enclosing span or -1.  Spans are kept in memory and turned into per-layer
metrics by `layer_metrics` when the traced iteration ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# defining module -> public functions wrapped in a span named "<module>.<function>"
TRACED = {
    "statevector": ("apply_gate", "run_circuit", "occupations",
                    "annihilation_operator", "momentum_annihilation"),
    "protocol": ("compare_trotter", "environment_method_grid",
                 "dynamical_correlation_baseline", "reference_windowed_spectral",
                 "nk_gaussian", "nk_exact_free"),
    "gaussian": ("mode_propagator", "evolve_gaussian", "extract_mode_transform"),
    "fft": ("compile_fft", "fft_circuit", "interleave_circuit",
            "single_particle_transfer"),
    "czgraph": ("decimate", "verify_equivalence"),
    "tableau": ("tableau_of", "tableau_of_cz_edges"),
}
LAYERS = tuple(TRACED)
GATE_KINDS = ("GIVENS", "RZ", "CX", "FSWAP", "CZ")


def _gate_info(args, kwargs, result):
    state, gate = args[0], args[1]
    return gate.kind.value, state.nbytes


def _decimate_info(args, kwargs, result):
    graph = args[0]
    penalty = args[1] if len(args) > 1 else kwargs.get("depth_penalty")
    return (graph.num_qubits, graph.edges, penalty), result.meta.get("steps", 0)


def _gate_count_info(args, kwargs, result):
    return len(args[0].gates)


def _edge_count_info(args, kwargs, result):
    return len(args[1])


INFO = {
    "statevector.apply_gate": _gate_info,
    "czgraph.decimate": _decimate_info,
    "gaussian.extract_mode_transform": _gate_count_info,
    "tableau.tableau_of": _gate_count_info,
    "tableau.tableau_of_cz_edges": _edge_count_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.eigh_calls = 0
        self.eigh_s = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self.patched_sites: list[str] = []

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def _wrap_eigh(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if not any(spans[i][0].startswith("gaussian.") for i in stack):
                    self.eigh_calls += 1
                    self.eigh_s += perf_counter() - t0

        return counted

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every binding site of every traced function in loaded fermispec modules."""
        import numpy.linalg
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "fermispec" or name.startswith("fermispec."))]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"fermispec.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)
                            self.patched_sites.append(f"{mod.__name__}.{attr}")
        self._set(numpy.linalg, "eigh", self._wrap_eigh(numpy.linalg.eigh))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer counts and times of one traced iteration that took `wall_s`."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        total = defaultdict(float)   # inclusive time by span name
        own = defaultdict(float)     # self time by span name
        calls = defaultdict(int)
        top_s = 0.0
        gate_s = defaultdict(float)
        bytes_computed = steps = gauss_gates = tableau_gates = 0
        distinct = set()
        for idx, (name, start, end, parent, info) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child_s[idx]
            calls[name] += 1
            if parent < 0:
                top_s += end - start
            if name == "statevector.apply_gate":
                gate_s[info[0]] += end - start
                bytes_computed += info[1]
            elif name == "czgraph.decimate":
                distinct.add(info[0])
                steps += info[1]
            elif name == "gaussian.extract_mode_transform":
                gauss_gates += info
            elif name.startswith("tableau."):
                tableau_gates += info

        dec_calls = calls["czgraph.decimate"]
        m = {
            "statevector.gates": calls["statevector.apply_gate"],
            "statevector.gate_s": total["statevector.apply_gate"],
            **{f"statevector.gate_s.{k}": gate_s[k] for k in GATE_KINDS},
            "statevector.bytes_computed": bytes_computed,
            "statevector.occupations_s": total["statevector.occupations"],
            "statevector.jw_ops": calls["statevector.annihilation_operator"],
            "statevector.jw_ops_s": total["statevector.annihilation_operator"],
            "protocol.eigh_calls": self.eigh_calls,
            "protocol.eigh_s": self.eigh_s,
            "protocol.env_grid_s": total["protocol.environment_method_grid"],
            "protocol.baseline_s": total["protocol.dynamical_correlation_baseline"],
            "protocol.reference_s": total["protocol.reference_windowed_spectral"],
            "protocol.nk_gaussian_self_s": own["protocol.nk_gaussian"],
            "gaussian.propagator_calls": calls["gaussian.mode_propagator"],
            "gaussian.propagator_s": total["gaussian.mode_propagator"],
            "gaussian.evolve_s": total["gaussian.evolve_gaussian"],
            "gaussian.sector_s": total["gaussian.extract_mode_transform"],
            "gaussian.sector_gates": gauss_gates,
            "fft.compile_self_s": sum(own[f"fft.{f}"] for f in
                                      ("compile_fft", "fft_circuit", "interleave_circuit")),
            "fft.interleave_calls": calls["fft.interleave_circuit"],
            "fft.certify_s": total["fft.single_particle_transfer"],
            "czgraph.decimate_calls": dec_calls,
            "czgraph.decimate_distinct": len(distinct),
            "czgraph.decimate_distinct_share": len(distinct) / dec_calls if dec_calls else 0.0,
            "czgraph.decimate_s": total["czgraph.decimate"],
            "czgraph.decimate_steps": steps,
            "czgraph.verify_s": total["czgraph.verify_equivalence"],
            "tableau.calls": calls["tableau.tableau_of"] + calls["tableau.tableau_of_cz_edges"],
            "tableau.gates": tableau_gates,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
        # the tableau functions call no other traced function: their time is their self time
        m["tableau.s"] = m.pop("tableau.self_s")
        m["bench.self_s"] = wall_s - top_s
        m["trace.spans"] = len(spans)
        return m

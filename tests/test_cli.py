import dataclasses
import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermispec
from fermispec import czgraph
from fermispec.cli import RUN_KEYS, main
from fermispec.circuits import read_circuit, two_qubit_count
from fermispec.czgraph import format_edge_list
from fermispec.fft import InterleaveStrategy, interleave_cz_graph, interleave_permutation
from fermispec.protocol import ProtocolConfig, nk_exact_free, nk_gaussian
from fermispec.verify import run_all


def test_compile_fft_imported_27(tmp_path):
    out = tmp_path / "fft27.txt"
    rc = main(["compile-fft", "--modes", "27", "--radix", "3",
               "--interleave", "imported", "--out", str(out)])
    assert rc == 0
    circuit = read_circuit(out)
    meta = json.loads((tmp_path / "fft27.txt.json").read_text())
    assert meta["two_qubit_count"] == two_qubit_count(circuit)


def test_compiled_imported_level1_interleaves_have_60_gates():
    from fermispec.fft import fft_circuit
    c = fft_circuit(27, 3, InterleaveStrategy.IMPORTED_SEQUENCE)
    blocks = c.meta["interleave_blocks"]
    # the two radix-3 top-level interleaves are the shipped 60-gate listing;
    # the strided base column's inverse permutation falls back to the ladder
    top_spans = sorted(end - start for (start, end, edges) in blocks
                       if len(edges) == 108)
    assert top_spans == [60, 60, 104]


def test_interleave_choices_are_the_strategy_values(tmp_path, capsys):
    """--interleave takes exactly the InterleaveStrategy values: `local` is not one."""
    argv = ["compile-fft", "--modes", "9", "--radix", "3", "--out", str(tmp_path / "x.txt")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--interleave", "local"])
    assert exc.value.code == 2
    assert "invalid choice: 'local'" in capsys.readouterr().err
    for strategy in InterleaveStrategy:
        assert main(argv + ["--interleave", strategy.value]) == 0


def test_compile_fft_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out, man in ((a, tmp_path / "a.json"), (b, tmp_path / "b.json")):
        rc = main(["compile-fft", "--modes", "9", "--radix", "3",
                   "--interleave", "graph-decimated", "--out", str(out),
                   "--manifest", str(man)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    ma = json.loads((tmp_path / "a.json").read_text())
    mb = json.loads((tmp_path / "b.json").read_text())
    assert list(ma["outputs"].values()) == list(mb["outputs"].values())


def test_compile_fft_manifest_records_depth_penalty(tmp_path):
    configs = []
    for penalty in ("0.5", "2.0"):
        man = tmp_path / f"{penalty}.json"
        assert main(["compile-fft", "--modes", "27", "--radix", "3",
                     "--interleave", "graph-decimated", "--depth-penalty", penalty,
                     "--out", str(tmp_path / f"{penalty}.txt"), "--manifest", str(man)]) == 0
        configs.append(json.loads(man.read_text())["config"])
    assert [c["depth_penalty"] for c in configs] == [0.5, 2.0]
    assert configs[0]["two_qubit_count"] != configs[1]["two_qubit_count"]


def test_runtime_imports_need_only_numpy():
    """numpy is the only runtime dependency: the package, the CLI and the
    oracle battery import with scipy and hypothesis unavailable."""
    code = ("import sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
            "import fermispec, fermispec.cli, fermispec.verify\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fermispec.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_optimize_cz_nine_qubit_interleave(tmp_path, capsys):
    graph = interleave_cz_graph(interleave_permutation(9, 3))
    gpath = tmp_path / "g.txt"
    gpath.write_text(format_edge_list(graph))
    out = tmp_path / "opt.txt"
    rc = main(["optimize-cz", "--graph", str(gpath), "--out", str(out)])
    assert rc == 0
    report = json.loads((tmp_path / "opt.txt.json").read_text())
    assert report["edges_in"] == 9
    assert report["gates_out"] <= 9
    assert report["tableau_verified"] is True
    assert json.loads(capsys.readouterr().out) == report


def test_optimize_cz_bad_graph(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 1\n2\n")
    rc = main(["optimize-cz", "--graph", str(gpath), "--out", str(tmp_path / "opt.txt")])
    assert rc == 2
    assert "bad graph: line 2" in capsys.readouterr().err


def test_optimize_cz_repeated_edge(tmp_path, capsys):
    """An edge listed twice, in either order, is refused: the tableau of the
    edge list would cancel the pair (CZ^2 = I) while the graph keeps it."""
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 1\n1 2\n1 0\n")
    rc = main(["optimize-cz", "--graph", str(gpath), "--out", str(tmp_path / "opt.txt")])
    assert rc == 2
    assert "bad graph: line 3: repeated edge (1, 0)" in capsys.readouterr().err
    assert not (tmp_path / "opt.txt").exists()


def test_optimize_cz_too_large(tmp_path, capsys, monkeypatch):
    """A 100 000-qubit header with one edge fails the memory rule: one
    `bad graph:` line naming the limit, exit 2, and no adjacency built."""
    def forbidden(*args, **kwargs):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(czgraph, "_rows", forbidden)
    gpath = tmp_path / "g.txt"
    gpath.write_text("# qubits: 100000\n0 1\n")
    rc = main(["optimize-cz", "--graph", str(gpath), "--out", str(tmp_path / "opt.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("bad graph: decimate on 100000 qubits") and len(err.splitlines()) == 1
    assert "(limit 1 GiB)" in err
    assert not (tmp_path / "opt.txt").exists()


@pytest.mark.parametrize("subcommand, flag, prefix", [
    ("simulate-spectral", "--config", "bad config: "),
    ("compare-trotter", "--config", "bad config: "),
    ("optimize-cz", "--graph", "bad graph: "),
])
def test_missing_input_file(tmp_path, capsys, subcommand, flag, prefix):
    missing = tmp_path / "missing.json"
    rc = main([subcommand, flag, str(missing), "--out", str(tmp_path / "x.out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and str(missing) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, config, prefix", [
    (["simulate-spectral"], {"omegas": 0.5}, "bad config: omegas"),
    (["simulate-spectral"], {"shots": "abc"}, "bad config: shots"),
    (["simulate-spectral"], {"n_sites": 4.5}, "bad config: n_sites"),
    (["simulate-spectral"], {"trotter_steps": 2.5}, "bad config: trotter_steps"),
    (["compare-trotter"], {"omegas": 0.5}, "bad config: omegas"),
    (["compile-fft", "--modes", "6", "--radix", "3"], None, "bad plan: num_modes 6"),
    (["compile-fft", "--modes", "9", "--radix", "5"], None, "bad plan: num_modes 9 is not a power of radix 5"),
    (["report", "--modes", "6"], None, "bad plan: num_modes 6"),
    (["compare-trotter"], {"step_counts": 3}, "bad config: step_counts"),
    (["compare-trotter"], {"step_counts": [2.5]}, "bad config: step_counts"),
    (["compare-trotter"], {"step_counts": []}, "bad config: step_counts"),
    (["compare-trotter"], {"step_counts": ["2"]}, "bad config: step_counts"),
    (["compare-trotter"], {"step_counts": [-1]}, "bad config: step_counts"),
    (["compile-fft", "--modes", "9", "--radix", "3", "--interleave", "graph-decimated",
      "--depth-penalty", "nan"], None, "bad penalty: depth_penalty must be finite, got nan"),
    (["compile-fft", "--modes", "9", "--radix", "3", "--depth-penalty", "inf"], None,
     "bad penalty: depth_penalty must be finite, got inf"),
    (["optimize-cz", "--depth-penalty", "nan"], None,
     "bad penalty: depth_penalty must be finite, got nan"),
    (["optimize-cz", "--depth-penalty", "inf"], None,
     "bad penalty: depth_penalty must be finite, got inf"),
    (["optimize-cz", "--depth-penalty=-inf"], None,
     "bad penalty: depth_penalty must be finite, got -inf"),
    (["simulate-spectral"], {"t": float("nan")}, "bad config: t must be finite, got nan"),
    (["simulate-spectral"], {"epsilon": float("nan")},
     "bad config: epsilon must be finite, got nan"),
    (["simulate-spectral"], {"nu": float("inf")}, "bad config: nu must be finite, got inf"),
    (["simulate-spectral"], {"omegas": [float("nan")]},
     "bad config: omegas must be a 1-D sequence of finite numbers"),
    (["compare-trotter"], {"omegas": [0.5, float("-inf")]},
     "bad config: omegas must be a 1-D sequence of finite numbers"),
    (["simulate-spectral"], {"initial_state": [float("nan"), 0, 0, 1]},
     "bad config: explicit rho_k"),
    (["compare-trotter"], {"step_counts": [0]}, "bad config: step_counts"),
    (["simulate-spectral"], {"seed": 3}, "bad config: seed requires the circuit method"),
    (["simulate-spectral"], {"method": "gaussian", "seed": 0},
     "bad config: seed requires the circuit method"),
    (["simulate-spectral"], {"shots": False}, "bad config: shots requires the circuit method"),
    (["simulate-spectral"], {"method": "exact", "shots": 0.0},
     "bad config: shots requires the circuit method"),
    (["simulate-spectral"], {"epsilon": True},
     "bad config: epsilon must be a real number, got True"),
])
def test_malformed_input(tmp_path, capsys, argv, config, prefix):
    if argv[0] == "optimize-cz":
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n")
        argv = argv + ["--graph", str(path)]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict({"n_sites": 4, "epsilon": 0.3, "t": 2.0}, **config)))
        argv = argv + ["--config", str(path)]
    rc = main(argv + ["--out", str(tmp_path / "x.out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1


def test_simulate_spectral_matches_exact(tmp_path):
    cfg = {"n_sites": 6, "epsilon": 0.3, "t": 4.0, "nu": 1.0,
           "initial_state": [1, 0, 1, 0, 0, 1], "omegas": [0.0, 0.8],
           "method": "exact"}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "grid.csv"
    rc = main(["simulate-spectral", "--config", str(cpath), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    grid = nk_exact_free(ProtocolConfig(6, 0.3, t=4.0, nu=1.0,
                                        initial_state=[1, 0, 1, 0, 0, 1]),
                         [0.0, 0.8])
    got = np.array([float(r.split(",")[2]) for r in rows]).reshape(6, 2)
    assert np.max(np.abs(got - grid.values)) < 1e-15


def test_shipped_sample_configs_and_panel_script(tmp_path, monkeypatch):
    """What the README points users at: each sample config, and the panel script."""
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    for config in sorted((scripts / "sample_configs").glob("*.json")):
        out, raw = tmp_path / f"{config.stem}.csv", json.loads(config.read_text())
        assert main(["simulate-spectral", "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + raw["n_sites"] * len(raw["omegas"])
    monkeypatch.setattr(sys, "argv", ["fig_spectral_panels.py", "--sites", "20",
                                      "--omega-points", "11", "--out-dir", str(tmp_path)])
    runpy.run_path(str(scripts / "fig_spectral_panels.py"), run_name="__main__")
    panels = sorted(tmp_path.glob("panel_*.csv"))
    assert [len(p.read_text().splitlines()) for p in panels] == [1 + 20 * 11] * 3


def test_simulate_spectral_paper_scale_circuit(tmp_path):
    """The shipped 27-site, 54-qubit circuit config: two particles, 64 steps,
    within the battery's bound of the Gaussian grid."""
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    config = scripts / "sample_configs" / "paper_scale_circuit.json"
    out, raw = tmp_path / "grid.csv", json.loads(config.read_text())
    assert main(["simulate-spectral", "--config", str(config), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    got = np.array([float(r.split(",")[2]) for r in rows]).reshape(27, 5)
    cfg = ProtocolConfig(**{k: v for k, v in raw.items() if k not in ("omegas", "method")})
    assert np.max(np.abs(got - nk_gaussian(cfg, raw["omegas"]).values)) < 6e-4
    assert {r.split(",")[3] for r in rows} == {"circuit-protocol"}


def test_simulate_spectral_bad_key(tmp_path, capsys):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"n_sites": 4, "epsilon": 0.1, "bogus_key": 3}))
    rc = main(["simulate-spectral", "--config", str(cpath),
               "--out", str(tmp_path / "x.csv")])
    assert rc != 0
    assert "bogus_key" in capsys.readouterr().err


def test_simulate_spectral_shot_mode_deterministic(tmp_path):
    cfg = {"n_sites": 2, "epsilon": 0.4, "t": 2.0, "nu": 1.0,
           "initial_state": [1, 0], "omegas": [0.5], "trotter_steps": 8,
           "method": "circuit", "shots": 100, "seed": 7}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["simulate-spectral", "--config", str(cpath),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_spectral_sidecar_carries_grid_meta(tmp_path):
    cfg = {"n_sites": 2, "epsilon": 0.4, "t": 2.0, "nu": 1.0,
           "initial_state": [1, 0], "omegas": [0.5, 1.0], "trotter_steps": 8,
           "method": "circuit", "shots": 100, "seed": 7}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "shots.csv"
    assert main(["simulate-spectral", "--config", str(cpath), "--out", str(out)]) == 0
    side = json.loads((tmp_path / "shots.csv.json").read_text())
    assert sorted(side) == ["columns", "config", "meta", "method", "omegas"]
    assert side["method"] == "circuit-protocol"
    assert side["omegas"] == [0.5, 1.0]
    assert side["columns"] == ["k", "omega", "value", "method"]
    assert side["meta"]["shots"] == 100 and side["meta"]["seed"] == 7
    assert side["meta"]["config"] == side["config"]


def test_report(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["report", "--modes", "9", "--radix", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("strategy,")
    assert len(lines) == 5  # four strategies at N=9


def test_verify_exit_codes(monkeypatch):
    from fermispec import verify as verify_mod
    monkeypatch.setattr(verify_mod, "CHECKS",
                        [("ok", lambda: (True, "fine"))])
    assert main(["verify"]) == 0
    monkeypatch.setattr(verify_mod, "CHECKS",
                        [("ok", lambda: (True, "fine")),
                         ("bad", lambda: (False, "broken"))])
    assert main(["verify"]) == 1


def test_verify_json(tmp_path, monkeypatch):
    from fermispec import verify as verify_mod
    out = tmp_path / "verify.json"
    assert main(["verify", "--json", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [r["name"] for r in records] == [name for name, _ in verify_mod.CHECKS]
    assert all(r["passed"] is True and isinstance(r["detail"], str) for r in records)
    monkeypatch.setattr(verify_mod, "CHECKS",
                        [("ok", lambda: (True, "fine")),
                         ("bad", lambda: (False, "broken"))])
    assert main(["verify", "--json", str(out)]) == 1
    assert json.loads(out.read_text()) == [
        {"name": "ok", "passed": True, "detail": "fine"},
        {"name": "bad", "passed": False, "detail": "broken"}]


def test_verify_battery_passes():
    """The checks `fermispec verify` ships, not a stand-in list."""
    failed = [(name, detail) for name, ok, detail in run_all(verbose=False)
              if not ok]
    assert failed == []


def test_compare_trotter_small(tmp_path):
    cfg = {"n_sites": 4, "epsilon": 0.2, "t": 2.0, "nu": -1.0,
           "interaction": 2.0, "omegas": [0.0, 1.0],
           "step_counts": [1, 4]}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "cmp.csv"
    rc = main(["compare-trotter", "--config", str(cpath), "--out", str(out)])
    assert rc == 0
    table = json.loads((tmp_path / "cmp.csv.json").read_text())
    assert [r["steps"] for r in table["rows"]] == [1, 4]


def test_simulate_spectral_interacting_needs_trotter_steps(tmp_path, capsys):
    # method auto routes continuous time (trotter_steps = 0) to the Gaussian path
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"n_sites": 4, "epsilon": 0.1, "interaction": 2.0}))
    rc = main(["simulate-spectral", "--config", str(cpath),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "requires V = 0" in capsys.readouterr().err


def _manifest_config(tmp_path, name, subcommand, cfg):
    cpath = tmp_path / f"{name}.json"
    cpath.write_text(json.dumps(cfg))
    man = tmp_path / f"{name}.manifest.json"
    assert main([subcommand, "--config", str(cpath), "--out", str(tmp_path / f"{name}.csv"),
                 "--manifest", str(man)]) == 0
    return json.loads(man.read_text())["config"]


def test_manifest_records_every_input(tmp_path):
    spectral = {"n_sites": 4, "epsilon": 0.3, "t": 2.0, "initial_state": [1, 0, 0, 1],
                "omegas": [0.0, 0.5]}
    a = _manifest_config(tmp_path, "a", "simulate-spectral", spectral)
    b = _manifest_config(tmp_path, "b", "simulate-spectral", dict(spectral, omegas=[0.0, 0.6]))
    assert a != b
    assert a["method"] == "gaussian" and a["shots"] == 0
    trotter = {"n_sites": 2, "epsilon": 0.2, "t": 1.0, "interaction": 1.0,
               "omegas": [0.0], "step_counts": [1]}
    c = _manifest_config(tmp_path, "c", "compare-trotter", trotter)
    d = _manifest_config(tmp_path, "d", "compare-trotter", dict(trotter, step_counts=[2]))
    e = _manifest_config(tmp_path, "e", "compare-trotter", dict(trotter, omegas=[0.5]))
    assert c != d and c != e
    graphs = []
    for name, text in (("f", "0 1\n1 2\n"), ("g", "0 2\n2 3\n")):
        (tmp_path / f"{name}.txt").write_text(text)
        man = tmp_path / f"{name}.manifest.json"
        assert main(["optimize-cz", "--graph", str(tmp_path / f"{name}.txt"),
                     "--out", str(tmp_path / f"{name}.cz"), "--manifest", str(man)]) == 0
        graphs.append(json.loads(man.read_text())["config"])
    assert graphs[0] != graphs[1]


# sha256 of (output, sidecar, manifest) per subcommand, on the runs of _pinned_run
_OUTPUT_PINS = {
    "compile-fft": ("1f978add9ac2bed88f51d48959f43f701be654322638d8865c2a3371a72871b8",
                    "099837e13f0794fa6e35c62bda6d74561e99e84f51fd54229ee939a71990d753",
                    "3a168003186c5df18ca0fb149e4d1df5c5cf6c55402c8f17ccffbee1b0a89902"),
    "optimize-cz": ("42fc9212595aa6cb2bbb2bd39eb2668e7c41c8161146af50887eb634ecf73201",
                    "099ce07e9352fbbc7c8e50f1d2137665549398e9d421284985ba40418a3e58f2",
                    "1244ddbcf4186475fb9b8295ec67a0cac5c454b816dbf687fb815d07d115ee78"),
    "report": ("f8e1731ebbeaaeba1094751a05314d850e1f69c025d5ce5ee12104519c94fdbc",
               "45f6baf40f56367b2817c5afa621a23cb0309df4ef77c4be2c5f26344fc99d7a",
               "ec77491fcd94decac96bd6e62d5daf285e49411e51e0e958d2d8c3f8f83f3f64"),
    "simulate-spectral": ("9a7d92a9e7c652ad0a864be268c44af43d6d42634a0c678ca393de8c1c6a28a9",
                          "1dc5682c147c87d4663ce42b5d3a6f16e9d30e24bcdeb83de6399927e5474999",
                          "a79d7679cf61dc3b0b7a37a0874434b13ee48df7cbb5a9b8633c1bee80035ab0"),
    "compare-trotter": ("ac4a769690492cf5689dcc2109a5c8dff2dfe8ebb51b6b71162fc0b17692b4f5",
                        "826bb8c5b6eefbfd1c9c5e972c4da9c1bdb9511721e8b92e355377a7296b215f",
                        "5400ff1d0b58bea949bb2406c3a82722ec066152e25b7b9c743fed8ac1657e0f"),
}


@pytest.mark.parametrize("subcommand", sorted(_OUTPUT_PINS))
def test_output_bytes_pinned(tmp_path, monkeypatch, subcommand):
    """Each subcommand's output, sidecar and manifest, byte for byte: compile-fft
    graph-decimated at N = 9, optimize-cz on the N = 9 interleave graph, report
    at N = 9, simulate-spectral on free_chain.json and compare-trotter on a
    4-site interacting chain."""
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text(format_edge_list(interleave_cz_graph(interleave_permutation(9, 3))))
    Path("cmp.json").write_text(json.dumps({"n_sites": 4, "epsilon": 0.2, "t": 2.0, "nu": -1.0,
                                            "interaction": 2.0, "omegas": [0.0, 1.0],
                                            "step_counts": [1, 4]}))
    free_chain = Path(__file__).resolve().parent.parent / "scripts/sample_configs/free_chain.json"
    out, argv = {
        "compile-fft": ("fft.txt", ["--modes", "9", "--radix", "3",
                                    "--interleave", "graph-decimated"]),
        "optimize-cz": ("cz.txt", ["--graph", "g.txt"]),
        "report": ("report.csv", ["--modes", "9", "--radix", "3"]),
        "simulate-spectral": ("grid.csv", ["--config", str(free_chain)]),
        "compare-trotter": ("cmp.csv", ["--config", "cmp.json"]),
    }[subcommand]
    manifest = subcommand + ".manifest.json"
    assert main([subcommand, *argv, "--out", out, "--manifest", manifest]) == 0
    digests = tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest()
                    for p in (out, out + ".json", manifest))
    assert digests == _OUTPUT_PINS[subcommand]


def test_readme_config_schema_lists_every_key():
    """The README's config-schema table names exactly the keys a config may
    hold: the ProtocolConfig fields and the CLI's RUN_KEYS."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    documented = {key for cell in rows for key in re.findall(r"`(\w+)`", cell)}
    fields = {f.name for f in dataclasses.fields(ProtocolConfig)}
    assert documented == fields | set(RUN_KEYS)

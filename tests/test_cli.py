import json

import numpy as np
import pytest

from fermispec.cli import main
from fermispec.circuits import read_circuit, two_qubit_count
from fermispec.czgraph import format_edge_list
from fermispec.fft import interleave_cz_graph, interleave_permutation
from fermispec.protocol import ProtocolConfig, nk_exact_free
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
    from fermispec.fft import fft_circuit, InterleaveStrategy
    c = fft_circuit(27, 3, InterleaveStrategy.IMPORTED_SEQUENCE)
    blocks = c.meta["interleave_blocks"]
    # the two radix-3 top-level interleaves are the shipped 60-gate listing;
    # the strided base column's inverse permutation falls back to the ladder
    top_spans = sorted(end - start for (start, end, edges) in blocks
                       if len(edges) == 108)
    assert top_spans == [60, 60, 104]


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


def test_optimize_cz_nine_qubit_interleave(tmp_path):
    graph = interleave_cz_graph(interleave_permutation(9, 3))
    gpath = tmp_path / "g.txt"
    gpath.write_text(format_edge_list(graph))
    out = tmp_path / "opt.txt"
    rc = main(["optimize-cz", "--graph", str(gpath), "--out", str(out)])
    assert rc == 0
    report = json.loads((tmp_path / "opt.txt.json").read_text())
    assert report["edges_in"] == 9
    assert report["gates_out"] <= 9


def test_optimize_cz_bad_graph(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 1\n2\n")
    rc = main(["optimize-cz", "--graph", str(gpath), "--out", str(tmp_path / "opt.txt")])
    assert rc == 2
    assert "bad graph: line 2" in capsys.readouterr().err


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

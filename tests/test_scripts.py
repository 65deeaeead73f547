"""Smoke runs of the scripts in ``scripts/`` on small inputs.

Each script is loaded from its file and its ``main`` is called with a
short argument list, so a change to the library calls they make shows
up here rather than at the next manual run.
"""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_second_order(capsys):
    _load("convergence_study").main(["--resolutions", "16", "32"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    res, _, area_order, _, volume_order = lines[2].split()
    assert res == "32"
    assert 1.5 < float(area_order) < 2.5
    assert 1.5 < float(volume_order) < 2.5


def test_profile_curves_writes_csv(tmp_path, capsys):
    _load("profile_curves").main(["--k-min", "2", "--k-max", "3", "--samples", "9",
                                  "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    for k in (2, 3):
        path = tmp_path / f"profile_k{k}.csv"
        assert f"wrote {path}" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "x,f,f_prime"
        assert len(lines) == 10


def test_volume_table_rows(capsys):
    _load("volume_table").main(["--n-max", "4"])
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:] if "closed forms" not in line]
    assert [(row[0], row[1]) for row in rows] == [("3", "2"), ("4", "2"), ("4", "3")]
    for row in rows:
        assert float(row[3]) == pytest.approx(0.0, abs=1e-8)


def test_bench_layers_of_a_checkout():
    import json
    import subprocess
    import sys

    root = SCRIPTS.parent
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench.py"), "--layers-of", str(root),
                           "--reps", "1", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(doc["checksums"]) == ["bulk-eval.1", "integral-gate.1", "stat-mesh.1"]
    assert all(row["s"] > 0.0 and len(row["checksum"]) == 64 for row in doc["layers"].values())
    assert {"mesh.csv_text.25000x4", "mesh.signed_volume.revolve128",
            "mesh.closed_check.revolve128", "mesh.write_obj.revolve128",
            "mesh.write_obj.graph64", "verify.halton.35000x2",
            "verify.halton.35000x2.start654321", "array.app_residual.25000",
            "verify.sample_surface.25000_k3", "cli.run.scaling_k2",
            "cli.run.sample25000", "scaling.f.cap.65536", "scaling.f.low.65536",
            "scaling.build.k3",
            "region.patch_volume.depth8.cold", "stat.first_gate_volumes.20.cold",
            "region.box_state.ball"} <= set(doc["layers"])
    assert doc["src_lines"] > 1000
    assert sorted(doc["profile_paths"]) == ["2", "3", "6"]
    for paths in doc["profile_paths"].values():
        assert sorted(paths) == ["cap_series", "low_series", "quintic"]
        assert sum(paths.values()) == 65_536 and min(paths.values()) > 0


def test_bench_layer_processes_pin_blas_threads(monkeypatch):
    import subprocess

    bench = _load("bench")
    envs = []

    def run(cmd, **kwargs):
        envs.append(kwargs.get("env"))
        return subprocess.CompletedProcess(cmd, 0, stdout='{"layers": {}}\n')

    monkeypatch.setattr(bench.subprocess, "run", run)
    assert bench._layers_subprocess(str(SCRIPTS.parent), 1, [1]) == {"layers": {}}
    assert len(envs) == 1 and envs[0] is not None
    assert all(envs[0][name] == "1" for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))


def test_bench_layer_rows_summarize_the_alternating_runs():
    bench = _load("bench")
    runs = [{"checksums": {"stat-mesh.1": "c"}, "layers": {"row": {"s": s, "checksum": "x"}}}
            for s in (0.3, 0.1, 0.2, 0.4)]
    row = bench._layer_summary(runs)["layers"]["row"]
    assert row["s"] == pytest.approx(0.25) and row["s_runs"] == [0.3, 0.1, 0.2, 0.4]
    assert row["s_q1"] < row["s"] < row["s_q3"] and row["checksum"] == "x"
    runs[2]["layers"]["row"]["checksum"] = "y"
    with pytest.raises(RuntimeError, match="row"):
        bench._layer_summary(runs)

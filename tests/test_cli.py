"""Command-line interface: subcommands, gates, config, and file output.

Runs the argument parser and command handlers in-process to check exit
codes, JSON/CSV payloads, and byte determinism, plus one subprocess
round trip through the installed console script.
"""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from archarray import cli
from archarray.array import make_archimedean
from archarray.cli import run
from archarray.mesh import Mesh, mesh_area, profile_curve
from archarray.scaling import make_scaling
from testutil import parse_obj


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# mk-table -------------------------------------------------------------------


def test_mk_table_default_range(capsys):
    code, out, _ = run_cli(capsys, ["mk-table"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,mk_quadrature,mk_closed_form,abs_diff"
    assert len(lines) == 8  # k = 2 .. 8
    k2 = lines[1].split(",")
    assert int(k2[0]) == 2
    assert float(k2[1]) == pytest.approx(1.0, abs=1e-10)
    assert float(k2[3]) < 1e-10


def test_mk_table_custom_range_matches_scaling(capsys):
    code, out, _ = run_cli(capsys, ["mk-table", "--k-min", "3", "--k-max", "4"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        k, quad, closed, _ = row.split(",")
        assert float(closed) == pytest.approx(
            make_scaling(int(k)).m_k, rel=1e-12
        )


def test_mk_table_bad_range_exits_2(capsys):
    code, _, err = run_cli(capsys, ["mk-table", "--k-min", "5", "--k-max", "3"])
    assert code == 2
    assert "error" in err


def test_mk_table_refuses_an_order_past_the_quadrature_limit(capsys):
    # From k = 43 on the M_k integrand is infinite at a node near t = 1;
    # the order is refused before any integrand runs (the suite turns a
    # RuntimeWarning into an error) and no partial table is written.
    code, out, err = run_cli(capsys, ["mk-table", "--k-min", "42", "--k-max", "43"])
    assert code == 2 and out == ""
    assert err == "error: mk_quadrature takes k up to 42, got 43\n"


def test_mk_table_file_output(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, ["mk-table", "--out", str(path)])
    assert code == 0 and out == ""
    text = path.read_text()
    code2, stdout_text, _ = run_cli(capsys, ["mk-table"])
    assert text == stdout_text


# scaling --------------------------------------------------------------------


def test_scaling_stdout_matches_profile_curve(capsys):
    code, out, _ = run_cli(capsys, ["scaling", "--k", "2", "--samples", "33"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,f"
    data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
    assert np.array_equal(data, profile_curve(make_scaling(2), 33))


def test_scaling_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "profile.csv"
    code, _, _ = run_cli(
        capsys, ["scaling", "--k", "3", "--samples", "17", "--out", str(path)]
    )
    assert code == 0
    code2, out, _ = run_cli(capsys, ["scaling", "--k", "3", "--samples", "17"])
    assert path.read_text() == out


# verify ---------------------------------------------------------------------


def test_verify_residual_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--n", "4", "--k", "2", "--mode", "residual",
         "--samples", "2000"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["mode"] == "residual"
    assert doc["max_abs_residual"] <= 1e-8
    assert (doc["schema"], doc["n"], doc["k"]) == (1, 4, 2)


def test_verify_integral_interval_base(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--n", "3", "--k", "2", "--mode", "integral",
         "--regions", "5"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["constant"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert doc["max_rel_error"] <= 1e-6
    assert len(doc["regions"]) == 5


def test_verify_integral_planar_base(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--n", "4", "--k", "2", "--mode", "integral",
         "--regions", "2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_rel_error"] <= 1e-6


def test_verify_statistical_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--n", "3", "--k", "2", "--mode", "statistical",
         "--samples", "50000", "--regions", "8", "--seed", "5"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["aggregate"]["p"] >= 0.001


def test_verify_statistical_low_expected_fails(capsys):
    # 1000 samples leave the small regions below the expected-hit floor,
    # which the gate treats as an inconclusive (failing) run.
    code, out, _ = run_cli(
        capsys,
        ["verify", "--n", "3", "--k", "2", "--mode", "statistical",
         "--samples", "1000", "--regions", "8", "--seed", "0"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["low_expected_regions"]


def test_verify_missing_mode_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n", "3", "--k", "2"])
    assert exc.value.code == 2


def test_verify_bad_dimensions_exit_2(capsys):
    code, _, err = run_cli(
        capsys, ["verify", "--n", "2", "--k", "2", "--mode", "residual"]
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("args,message", [
    (["--n", "2", "--k", "2"], "ambient dimension must be at least 3"),
    (["--n", "4", "--k", "4"], "codimension k must satisfy 2 <= k <= n-1"),
    (["--n", "4", "--k", "2", "--r", "0"], "r_scale must be positive"),
], ids=["n2-k2", "n4-k4", "r0"])
def test_verify_names_the_bad_array_input(capsys, args, message):
    # make_archimedean checks n, k and r before it builds the ball base,
    # so a zero-dimensional base never reports its own error instead.
    code, out, err = run_cli(capsys, ["verify", *args, "--mode", "residual"])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# volume ---------------------------------------------------------------------


def test_volume_total(capsys):
    code, out, _ = run_cli(capsys, ["volume", "--n", "3", "--k", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"]["numeric"] == pytest.approx(4.0 * math.pi, rel=1e-8)
    assert doc["total"]["closed_form"] == pytest.approx(4.0 * math.pi,
                                                        rel=1e-12)
    assert doc["total"]["rel_difference"] <= 1e-6


def test_volume_enclosed_with_monte_carlo(capsys):
    code, out, _ = run_cli(
        capsys,
        ["volume", "--n", "3", "--k", "2", "--enclosed",
         "--samples", "20000", "--seed", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    enc = doc["enclosed"]
    assert enc["numeric"] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)
    assert enc["closed_form"] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    assert abs(enc["mc_value"] - enc["numeric"]) < 4.0 * enc["mc_error"]


def test_volume_enclosed_equizonal_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, ["volume", "--n", "4", "--k", "3", "--enclosed"]
    )
    assert code == 0
    doc = json.loads(out)
    enc = doc["enclosed"]
    assert enc["rel_difference"] <= 1e-4
    assert "mc_value" not in enc


def test_volume_out_file_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert run_cli(capsys, ["volume", "--n", "4", "--k", "2",
                            "--out", str(p1)])[0] == 0
    assert run_cli(capsys, ["volume", "--n", "4", "--k", "2",
                            "--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


# mesh -----------------------------------------------------------------------


def test_mesh_revolve_export(tmp_path, capsys):
    path = tmp_path / "sphere.obj"
    code, _, _ = run_cli(
        capsys,
        ["mesh", "--n", "3", "--k", "2", "--res", "16", "--out", str(path)],
    )
    assert code == 0
    verts, faces = parse_obj(path.read_text())
    mesh = Mesh(verts, faces, closed=True)
    assert mesh.is_watertight()
    assert mesh_area(mesh) == pytest.approx(4.0 * math.pi, rel=2e-2)


def test_mesh_slice_export(tmp_path, capsys):
    path = tmp_path / "slice.obj"
    code, _, _ = run_cli(
        capsys,
        ["mesh", "--n", "4", "--k", "2", "--res", "12", "--out", str(path)],
    )
    assert code == 0
    verts, faces = parse_obj(path.read_text())
    mesh = Mesh(verts, faces, closed=True)
    assert mesh.is_watertight()
    assert mesh.signed_volume() == pytest.approx(4.0 * math.pi / 3.0,
                                                 rel=2e-2)


def test_mesh_byte_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.obj"
    p2 = tmp_path / "b.obj"
    args = ["mesh", "--n", "3", "--k", "2", "--res", "12"]
    assert run_cli(capsys, args + ["--out", str(p1)])[0] == 0
    assert run_cli(capsys, args + ["--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_mesh_requires_out(capsys):
    code, _, err = run_cli(capsys, ["mesh", "--n", "3", "--k", "2"])
    assert code == 2
    assert "error" in err


def test_mesh_unsupported_base_dimension(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        ["mesh", "--n", "5", "--k", "2", "--out", str(tmp_path / "x.obj")],
    )
    assert code == 2


@pytest.mark.parametrize("n", ["3", "4"])
def test_mesh_checks_out_before_building(n, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("mesh built before the arguments were checked")

    monkeypatch.setattr(cli, "revolve_mesh", refuse)
    monkeypatch.setattr(cli, "graph_slice_mesh", refuse)
    code, _, err = run_cli(capsys, ["mesh", "--n", n, "--k", "2", "--res", "512"])
    assert code == 2
    assert "needs --out" in err


# sample ---------------------------------------------------------------------


def test_sample_points_on_surface(capsys):
    code, out, _ = run_cli(
        capsys, ["sample", "--n", "3", "--k", "2", "--count", "50",
                 "--seed", "3"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 51
    pts = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
    arr = make_archimedean(3, 2)
    assert np.max(np.abs(arr.implicit_eval(pts))) < 1e-9


def test_sample_rejects_zero_count(capsys):
    code, out, err = run_cli(capsys, ["sample", "--n", "3", "--k", "2", "--count", "0"])
    assert code == 2
    assert out == ""
    assert "count must be at least 1" in err


def test_verify_residual_rejects_a_negative_sample_count(capsys):
    code, out, err = run_cli(capsys, ["verify", "--n", "3", "--k", "2", "--mode", "residual",
                                      "--samples", "-5"])
    assert code == 2
    assert out == ""
    assert "count must be at least 1" in err


def test_scaling_refuses_an_order_that_does_not_build(capsys):
    code, out, err = run_cli(capsys, ["scaling", "--k", "25"])
    assert code == 2
    assert out == ""
    assert "k must be at most 24, the largest codimension whose profile builds" in err


def test_volume_enclosed_rejects_a_negative_sample_count(capsys):
    code, out, err = run_cli(capsys, ["volume", "--n", "3", "--k", "2", "--enclosed",
                                      "--samples", "-5"])
    assert code == 2
    assert out == ""
    assert "samples must be nonnegative" in err


@pytest.mark.parametrize("mode,message", [("residual", "count must be at least 1"),
                                          ("statistical", "need at least one sample")])
def test_verify_rejects_a_zero_sample_count(capsys, mode, message):
    code, out, err = run_cli(capsys, ["verify", "--n", "3", "--k", "2", "--mode", mode,
                                      "--samples", "0", "--regions", "4"])
    assert code == 2
    assert out == ""
    assert message in err


def test_sample_deterministic_by_seed(capsys):
    args = ["sample", "--n", "4", "--k", "2", "--count", "20"]
    _, out1, _ = run_cli(capsys, args + ["--seed", "9"])
    _, out2, _ = run_cli(capsys, args + ["--seed", "9"])
    _, out3, _ = run_cli(capsys, args + ["--seed", "10"])
    assert out1 == out2
    assert out1 != out3


# config and shared flags ----------------------------------------------------


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3, "samples": 9}))
    code, out, _ = run_cli(capsys, ["scaling", "--config", str(cfg)])
    assert code == 0
    data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
    assert data.shape == (9, 2)
    assert data[-1, 0] == pytest.approx(make_scaling(3).m_k, rel=1e-12)


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3, "samples": 9}))
    code, out, _ = run_cli(
        capsys, ["scaling", "--config", str(cfg), "--samples", "5"]
    )
    assert code == 0
    data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
    assert data.shape == (5, 2)
    assert data[-1, 0] == pytest.approx(make_scaling(3).m_k, rel=1e-12)


def test_config_equals_form_matches_separate_form(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "k": 3, "r": 2.0}))
    outs = []
    for argv in (["volume", "--config", str(cfg)], ["volume", f"--config={cfg}"],
                 ["volume", "--n", "4", "--k", "3", f"--config={cfg}"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["r_scale"] == 2.0


def test_config_missing_file_exit_2(capsys):
    code, _, err = run_cli(
        capsys, ["scaling", "--k", "2", "--config", "/nonexistent.json"]
    )
    assert code == 2
    assert "bad config" in err


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, ["scaling", "--k", "2",
                                    "--config", str(cfg)])
    assert code == 2
    assert "bad config" in err


@pytest.mark.parametrize("extra", [["--conf", "{cfg}"], ["--confi", "{cfg}"], ["--conf={cfg}"],
                                   ["--sam", "3"]], ids=" ".join)
def test_abbreviated_flags_are_refused(extra, tmp_path, capsys):
    # argparse would read a prefix of --config, but the config loader would
    # not, and the file would be dropped without a word.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 3}))
    with pytest.raises(SystemExit) as exc:
        run(["scaling", "--k", "2"] + [arg.format(cfg=cfg) for arg in extra])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_config_leaves_the_shared_parser_as_it_was(tmp_path, capsys):
    # The parser is built once per process; a config run must not satisfy
    # a later run's required flags or set its defaults.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3, "samples": 9}))
    assert run_cli(capsys, ["scaling", "--config", str(cfg)])[0] == 0
    with pytest.raises(SystemExit) as exc:
        run(["scaling"])
    assert exc.value.code == 2
    assert "required: --k" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["scaling", "--k", "3"])
    assert code == 0 and len(out.splitlines()) == 1 + 257
    assert cli._build_parser() is cli._build_parser()


# console script --------------------------------------------------------------


def test_console_script_round_trip(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "archarray.cli", "volume", "--n", "3",
         "--k", "2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["total"]["numeric"] == pytest.approx(4.0 * math.pi, rel=1e-8)


def test_console_script_usage_error():
    result = subprocess.run(
        [sys.executable, "-m", "archarray.cli"], capture_output=True,
        text=True,
    )
    assert result.returncode == 2

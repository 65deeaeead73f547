"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Every workload runs once untraced and once traced with ``--tiny``; each
run must be correct and emit every metric that ``BENCHMARK.json``
declares for its mode.  The tracer must restore every original before
the untraced rounds, and must report a removed target as absent.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(declared)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    elif workload == "stat-mesh":
        # The second statistical gate finds the first one's clipped volumes.
        assert result["metrics"]["region.clip_cache.hit_ratio"]["value"] == 0.5


def test_tracer_restores_every_original():
    import archarray
    import archarray.cli  # noqa: F401

    from archarray.base import Ball

    original = archarray.special.betainc_reg
    override = Ball.__dict__["boundary_radius"]
    tracer = Tracer()
    tracer.install()
    try:
        assert archarray.scaling.betainc_reg is archarray.special.betainc_reg
        assert archarray.scaling.betainc_reg is not original
        assert Ball.__dict__["boundary_radius"] is not override
        assert Tracer.leftover_wrappers()
    finally:
        tracer.restore()
    assert Tracer.leftover_wrappers() == []
    assert archarray.scaling.betainc_reg is original
    assert Ball.__dict__["boundary_radius"] is override
    assert archarray.betainc_reg is original
    assert tracer.absent == []


def test_removed_target_is_absent_not_zero(monkeypatch):
    from archarray.scaling import ScalingFunction

    monkeypatch.delattr(ScalingFunction, "_f_root")
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert "scaling.f_root" in tracer.absent
    metrics = tracer.metrics()
    assert "scaling.f_root.calls" not in metrics
    assert "scaling.f_root.steps_max" not in metrics
    assert "special.betainc_reg.calls" in metrics


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "stat-mesh", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

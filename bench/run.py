"""Benchmark of the archarray library: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload integral-gate --seed 1 --seconds 40 --trace 0

The library is imported from the checkout's ``src`` directory.  The run
repeats the workload's operation list (a round) until ``--seconds``
would be exceeded, times its set-up in fresh processes between the
rounds, checks every round against closed forms, committed references
and the first round, and prints each metric with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 1`` the first round runs under the tracer
and the metrics are the per-layer ones; see ``README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One process, no worker threads: pin the numeric libraries before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 11

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Layers each workload must call; a zero count in a traced run means the
# tracer lost the calls, and the run is not correct.
REQUIRED_CALLS = {
    "integral-gate": ("special.betainc_reg", "scaling.f_root", "region.clipped_quadrature",
                      "region.integrand", "region.clipped_volume", "array.area_density"),
    "bulk-eval": ("special.betainc_reg", "scaling.f_root", "quadrature.integrate",
                  "array.enclosed_mc", "array.app_residual", "verify.interior_points",
                  "verify.base_uniform", "base.signed_distance", "cli.run"),
    "stat-mesh": ("verify.app_statistical_test", "verify.base_uniform",
                  "region.clipped_quadrature", "region.contains", "mesh.revolve_mesh",
                  "mesh.graph_slice_mesh", "mesh.write_obj", "cli.run"),
}
SETUP_CALLS = ("scaling.make_scaling", "quadrature.integrate")

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import archarray
for pair in sys.argv[2:]:
    n, k = map(int, pair.split(","))
    archarray.make_archimedean(n, k)
"""


def _import_archarray():
    if not os.path.isfile(os.path.join(SRC, "archarray", "__init__.py")):
        raise SystemExit(f"error: no archarray sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import archarray
    import archarray.cli  # noqa: F401  (the CLI module is a layer of its own)

    if not os.path.abspath(archarray.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported archarray from {archarray.__file__}, not {SRC}")
    return archarray


def _setup_once(pairs):
    """Wall time of a fresh process importing archarray and building the
    workload's arrays (profile tables and the M_k dual-route checks)."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC] + [f"{n},{k}" for n, k in pairs]
    start = time.perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT)
    return time.perf_counter() - start


def _load_reference(tiny):
    """Committed reference values; mesh entries depend on the input sizes."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    common = {k: v for k, v in ref.items() if k not in ("full", "tiny")}
    return {**common, **ref["tiny" if tiny else "full"]}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (attempted, failed, failures, metrics, report).

    ``metrics`` maps a name to (value, unit); ``report`` holds the inputs
    and round times that the caller prints.
    """
    aa = _import_archarray()
    cls = workloads.WORKLOADS[workload]
    sizes = workloads.TINY if tiny else workloads.FULL
    out_parent = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_parent, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=out_parent)
    try:
        return _run(aa, cls, seed, seconds, trace, sizes, tiny, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(out_parent)
        except OSError:
            pass


def _run(aa, cls, seed, seconds, trace, sizes, tiny, outdir):
    wl = cls(seed, sizes, outdir, _load_reference(tiny))
    report = {"workload": wl.name, "seed": seed, "inputs": wl.inputs()}
    failures = []
    setup_times = []

    rounds = []
    tracer = None
    start = time.perf_counter()
    if trace:
        # The in-process set-up and the first round run traced.
        tracer = Tracer()
        tracer.install()
        try:
            arrays = {pair: aa.make_archimedean(*pair) for pair in wl.pairs}
            t0 = time.perf_counter()
            rounds.append(wl.run_round(aa, arrays))
            traced_s = time.perf_counter() - t0
        finally:
            tracer.restore()
        leftover = Tracer.leftover_wrappers()
        if leftover:
            failures.append(("tracer", "wrappers left behind: " + ", ".join(leftover)))
    else:
        arrays = {pair: aa.make_archimedean(*pair) for pair in wl.pairs}
    times = []
    while True:
        t0 = time.perf_counter()
        rounds.append(wl.run_round(aa, arrays))
        times.append(time.perf_counter() - t0)
        # The set-up samples are spread over the run, between rounds, so
        # that they see the same phases of the shared host as the rounds.
        share = (time.perf_counter() - start) / seconds
        while len(setup_times) < SETUP_REPS * min(share, 1.0):
            setup_times.append(_setup_once(wl.pairs))
        if time.perf_counter() - start + max(times) > seconds:
            break
    while len(setup_times) < SETUP_REPS:
        setup_times.append(_setup_once(wl.pairs))
    setup_s = statistics.median(setup_times)
    report["setup_times_s"] = setup_times
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0]
    wl.final_checks(aa, first)
    attempted = sum(r.attempted for r in rounds)
    for i, rnd in enumerate(rounds):
        failures.extend((f"round {i} {op}", problem) for op, problem in rnd.failures)
        if i and rnd.values != first.values:
            changed = sorted(k for k in first.values if rnd.values.get(k) != first.values[k])
            failures.append((f"round {i} outputs", "differ from round 0: " + ", ".join(changed)))

    wall_s = statistics.median(times)
    q1, q3 = _quartiles(times)
    report["round_times_s"] = times
    report["wall_quartiles_s"] = [q1, q3]
    report["op_seconds"] = first.seconds
    report["errors"] = first.errors
    metrics = {}
    if tracer is None:
        metrics["setup_s"] = (setup_s, "s")
        metrics["wall_s"] = (wall_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["max_rel_error"] = (first.max_rel_error(), "ratio")
    else:
        report["traced_round_s"] = traced_s
        report["absent"] = tracer.absent
        metrics.update(tracer.metrics())
        metrics["trace.overhead_s"] = (traced_s - wall_s, "s")
        for label in REQUIRED_CALLS[wl.name] + SETUP_CALLS:
            if label in tracer.stats and tracer.stats[label].calls == 0:
                failures.append(("tracer", f"no calls recorded for {label}"))
    # Several problems with one operation still fail only that operation.
    failed = min(len({key for key, _ in failures}), attempted)
    metrics["fail_frac"] = (failed / attempted, "ratio")
    return attempted, failed, failures, metrics, report


def _declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the smoke test")
    args = parser.parse_args(argv)

    attempted, failed, failures, metrics, report = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    declared = _declared(bool(args.trace))
    for name in declared:
        if name not in metrics:
            print(f"absent metric: {name}")

    print(json.dumps({k: v for k, v in report.items() if k != "errors"}, sort_keys=True))
    for name, (err, tol) in sorted(report["errors"].items()):
        print(f"rel_error {name} {err:.6e} (tolerance {tol:.0e})")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} {value!r} {unit}")
    for key, problem in failures:
        print(f"FAIL {key}: {problem}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

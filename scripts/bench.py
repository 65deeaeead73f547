"""Benchmark record of a checkout: end-to-end runs, layer timings, checksums.

Runs ``bench/run.py`` (untraced) on every workload and seed, times the
hot kernels of the statistical gate and its p-value, of the cell walk
(its box test, and walks on a warm and on an empty leaf-draw memo), of
the profile layer and its build, of the ellipse and hexagon bases, of
the residual gate, of surface sampling, of the CSV and OBJ export, of
the closed mesh check, of the Halton sequence and of two CLI calls in a
fresh process, counts the forward profile values answered by its low
series, its quintic and its cap series, hashes the results bit for bit,
counts the lines under ``src/`` and writes it all, with the machine it
ran on, to one JSON file.  With ``--baseline`` the same is done for a
second checkout.  The layer processes and the end-to-end runs of the
two alternate, each pair starting with the other checkout, so both see
the same phases of a shared host; each layer row records its median
and quartiles over the pairs, and every run must reproduce its
checksums.  The layer processes run with one BLAS thread, as
``bench/run.py`` does.

Usage, from the root of a source checkout:

    python3 scripts/bench.py --out BENCH.json --baseline ../parent --pairs 5

Both checkouts are measured with this script, so ``--baseline`` may point
at an older checkout that has no ``scripts/bench.py``.  For
``peak_rss_mb`` to compare, give the two checkouts paths of equal length.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("integral-gate", "bulk-eval", "stat-mesh")
# Set to 1 in the layer processes, as bench/run.py sets them: one BLAS
# thread per process, whatever the host's default.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _hex(value):
    """float.hex of every float in a nested value; other leaves as repr."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _hex(v) for k, v in sorted(value.items())}
    return repr(value)


def _digest(value):
    return hashlib.sha256(json.dumps(_hex(value), sort_keys=True).encode()).hexdigest()


def _timed(fn, reps):
    """Median wall time of ``reps`` calls, and the last call's result."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def layers(root, reps, seeds):
    """Layer timings and result checksums of the checkout at ``root``,
    measured in this process."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import numpy as np

    import archarray
    import archarray.cli  # noqa: F401  (workloads call the CLI)
    import archarray.region as region_module
    import workloads
    from archarray.scaling import _build, make_scaling
    from archarray.special import betainc_reg, gamma_q
    from archarray.verify import _base_uniform, _expected_fractions, _philox

    h = archarray.make_archimedean(4, 2)
    rng = np.random.default_rng(0)
    lo, hi = h.base.bounding_box()
    pts = lo + rng.random((200_000, 2)) * (hi - lo)
    box = archarray.Region.box([-0.3, -0.2], [0.4, 0.5])
    ball = archarray.Region.ball([0.2, -0.1], 0.45)
    windows = workloads.WORKLOADS["stat-mesh"](1, workloads.FULL, "", {}).windows

    def regions():
        return [archarray.Region.ball(c, s) if shape == "ball"
                else archarray.Region.box(c - s, c + s) for shape, c, s in windows]

    cached = regions()
    _expected_fractions(h, cached)

    def cold(fn):
        """``fn`` on an empty leaf-draw memo; a checkout without the memo
        draws the leaves in every walk anyway."""
        def run():
            getattr(region_module, "_LEAF_MEMO", {}).clear()
            return fn()
        return run

    # 200 box tests of 256 boxes on the n=4, k=2 ball base, about one walk
    # level each, from their own stream; a checkout without box_state gives
    # the same states from its misses_box and holds_box.
    box_lo = lo + np.random.default_rng(2).random((256, 2)) * (hi - lo)
    box_hi = box_lo + np.random.default_rng(3).random((256, 2)) * (hi - lo) / 16
    box_state = getattr(h.base, "box_state", None) or (lambda a, b: np.where(
        h.base.misses_box(a, b), 0, h.base.holds_box(a, b) + 1))
    def _series_end(s):
        """Where the profile's low series ends; a checkout without one (it
        solved by Newton there) gives the left node of its first trusted
        bracket."""
        if hasattr(s, "low_end"):
            return s.low_end
        return float(s.x_table[int(np.argmax(s.trusted))])

    # The profile layer on 65,536 points (k = 3) and the enclosed-volume
    # Monte Carlo, whose hit test reads the profile's node table.
    prof = make_scaling(3)
    xs = (1.0 - rng.random(65_536)) * prof.m_k
    ys = rng.random(65_536)
    # The even-series cap: x uniform on [0.75, 1) m_k, from its own stream;
    # and the low run, x uniform on (0, series end], from another.
    xs_cap = (0.75 + 0.25 * np.random.default_rng(1).random(65_536)) * prof.m_k
    xs_low = _series_end(prof) * (1.0 - np.random.default_rng(4).random(65_536))
    # The chi-square p-value Q(dof/2, chi2/2) on chi2 from 0.5 dof to 1.5 dof.
    chi20 = np.linspace(10.0, 30.0, 200).tolist()
    chi2000 = np.linspace(1000.0, 3000.0, 20).tolist()
    h43 = archarray.make_archimedean(4, 3)
    # Non-ball bases under the n=4, k=2 profile: an ellipse with semi-axes
    # m_2 and 0.6 m_2 (65,536 points in its bounding box) and a regular
    # hexagon of inradius 0.8.
    m2 = h.scaling.m_k
    ellipse = archarray.Ellipse(np.zeros(2), [m2, 0.6 * m2])
    ell_pts = rng.uniform(-1.2, 1.2, (65_536, 2)) * ellipse.semi_axes

    def over(base):
        """The n=4, k=2 archimedean array over ``base``; a checkout from
        before the warp classes takes n, k, the profile and a mode name."""
        if hasattr(archarray, "ArchimedeanWarp"):
            return archarray.SphericalArray(base, archarray.ArchimedeanWarp(2))
        return archarray.SphericalArray(4, 2, base, h.scaling, 1.0, "archimedean")

    h_ell = over(ellipse)
    h_hex = over(archarray.regular_polygon(6, inradius=0.8))
    # Text export: the 25,000-point n=4, k=3 sample as CSV and stat-mesh's
    # two meshes as OBJ; and the signed volume and the shared-edge check of
    # the 128x128 revolve mesh, which orient and check every closed mesh.
    from archarray.mesh import Mesh, csv_text, graph_slice_mesh, revolve_mesh, write_obj
    from archarray.verify import halton, interior_points, sample_surface

    sample = sample_surface(h43, 25_000, seed=1)
    # The residual gate's 25,000 points on the n=4, k=2 base, from Halton
    # index 654,321 (bulk-eval draws its start below 10^6).
    residual_pts = interior_points(h.base, 25_000, boundary_offset=1e-6 * h.base.inradius(),
                                   start=654_321)
    revolve = revolve_mesh(archarray.make_archimedean(3, 2), 128, 128)
    graph = graph_slice_mesh(h, 64)
    objdir = tempfile.TemporaryDirectory()

    def written(mesh, name):
        """Write ``mesh`` as OBJ; the row's checksum is of the bytes written."""
        path = pathlib.Path(objdir.name, name)
        write_obj(mesh, path)
        return path

    def scaling_csv():
        """The CLI's k = 2 profile CSV, argument parsing included."""
        path = pathlib.Path(objdir.name, "scaling_k2.csv")
        archarray.cli.run(["scaling", "--k", "2", "--out", str(path)])
        return path

    def sample_csv():
        """The CLI's 25,000-point n=4, k=3 sample CSV, as bulk-eval writes it."""
        path = pathlib.Path(objdir.name, "sample.csv")
        archarray.cli.run(["sample", "--n", "4", "--k", "3", "--count", "25000",
                           "--seed", "1", "--out", str(path)])
        return path
    rows = {
        "ball.inside_mask.200k": lambda: h.base.inside_mask(pts),
        "region.contains.box.200k": lambda: box.contains(pts),
        "region.contains.ball.200k": lambda: ball.contains(pts),
        "verify.base_uniform.200k": lambda: _base_uniform(h.base, 200_000, _philox(5, 0x5A11))[0],
        "stat.first_gate_volumes.20": lambda: _expected_fractions(h, regions()),
        "stat.first_gate_volumes.20.cold": cold(lambda: _expected_fractions(h, regions())),
        "stat.cached_gate.200k": lambda: (lambda r: (r.chi2, r.p_value))(
            archarray.app_statistical_test(h, cached, 200_000, seed=5)),
        "region.patch_volume.depth8": lambda: h.patch_volume(
            archarray.Region.ball([0.55, -0.1], 0.22), depth=8, seed=1),
        "region.patch_volume.depth8.cold": cold(lambda: h.patch_volume(
            archarray.Region.ball([0.55, -0.1], 0.22), depth=8, seed=1)),
        "region.box_state.ball": lambda: [box_state(box_lo, box_hi) for _ in range(200)][-1],
        "scaling.f.65536": lambda: prof.f(xs),
        "scaling.f_prime.65536": lambda: prof.f_prime(xs),
        "scaling.f.cap.65536": lambda: prof.f(xs_cap),
        "scaling.f.low.65536": lambda: prof.f(xs_low),
        # A whole k = 3 profile, built past make_scaling's cache; the
        # checksum is of its series coefficients.
        "scaling.build.k3": lambda: _build.__wrapped__(3).taylor,
        "scaling.f_inverse.65536": lambda: prof.f_inverse(ys),
        "special.betainc_reg.65536": lambda: betainc_reg(0.75, 0.5, ys ** 4),
        "special.gamma_q.dof20": lambda: [gamma_q(10.0, c / 2.0) for c in chi20],
        "special.gamma_q.dof2000": lambda: [gamma_q(1000.0, c / 2.0) for c in chi2000],
        "array.enclosed_mc.1e6": lambda: h43._enclosed_mc(1_000_000, 7),
        "base.ellipse.signed_distance.65536": lambda: ellipse.signed_distance(ell_pts),
        "array.ellipse.total_volume": lambda: h_ell.total_volume().value,
        "array.hexagon.patch_volume.depth8": lambda: h_hex.patch_volume(
            archarray.Region.ball([0.3, -0.1], 0.4), depth=8, seed=1),
        "mesh.csv_text.25000x4": lambda: csv_text(["x0", "x1", "x2", "x3"], sample),
        "mesh.signed_volume.revolve128": revolve.signed_volume,
        "mesh.closed_check.revolve128": lambda: Mesh(revolve.vertices, revolve.triangles,
                                                     closed=True).closed,
        "mesh.write_obj.revolve128": lambda: written(revolve, "revolve128.obj"),
        "mesh.write_obj.graph64": lambda: written(graph, "graph64.obj"),
        "verify.halton.35000x2": lambda: halton(35_000, 2),
        "verify.halton.35000x2.start654321": lambda: halton(35_000, 2, start=654_321),
        "array.app_residual.25000": lambda: h.app_residual(residual_pts),
        "verify.sample_surface.25000_k3": lambda: sample_surface(h43, 25_000, seed=1),
        "cli.run.scaling_k2": scaling_csv,
        "cli.run.sample25000": sample_csv,
    }
    out = {"layers": {}, "checksums": {}}
    for name, fn in rows.items():
        seconds, result = _timed(fn, reps)
        if isinstance(result, np.ndarray):
            check = hashlib.sha256(result.tobytes()).hexdigest()
        elif isinstance(result, str):
            check = hashlib.sha256(result.encode()).hexdigest()
        elif isinstance(result, pathlib.Path):
            check = hashlib.sha256(result.read_bytes()).hexdigest()
        else:
            check = _digest(result)
        out["layers"][name] = {"s": seconds, "checksum": check}
    objdir.cleanup()

    # How many of 65,536 uniform points of (0, m_k] the forward profile
    # answers by each path, for k = 2, 3 and 6, by its routing rule: the
    # even series within the guard of m_k, the low series below the
    # series end, the quintic elsewhere.
    out["profile_paths"] = {}
    for k in (2, 3, 6):
        sk = make_scaling(k)
        pts_k = sk.m_k * (1.0 - np.random.default_rng(5).random(65_536))
        cap = sk.m_k - pts_k <= sk.series_radius_guard
        low = ~cap & (pts_k < _series_end(sk))
        out["profile_paths"][str(k)] = {
            "low_series": int(low.sum()), "cap_series": int(cap.sum()),
            "quintic": int(pts_k.size - low.sum() - cap.sum())}

    # One round of every workload: the sha256 of its values, floats as hex.
    with open(os.path.join(root, "bench", "reference.json")) as fh:
        raw = json.load(fh)
    reference = {**{k: v for k, v in raw.items() if k not in ("full", "tiny")}, **raw["full"]}
    for name in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as outdir:
                wl = workloads.WORKLOADS[name](seed, workloads.FULL, outdir, reference)
                arrays = {pair: archarray.make_archimedean(*pair) for pair in wl.pairs}
                rnd = wl.run_round(archarray, arrays)
            out["checksums"][f"{name}.{seed}"] = _digest(rnd.values)

    src = os.path.join(root, "src")
    out["src_lines"] = sum(
        sum(1 for _ in open(os.path.join(d, f)))
        for d, _, files in os.walk(src) for f in files if f.endswith(".py"))
    return out


def _layers_subprocess(root, reps, seeds):
    cmd = [sys.executable, os.path.abspath(__file__), "--layers-of", root,
           "--reps", str(reps), "--seeds", ",".join(map(str, seeds))]
    env = {**os.environ, **dict.fromkeys(BLAS_THREADS, "1")}
    res = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _layer_summary(runs):
    """One checkout's layer record from its runs: each row's median and
    quartiles over the runs' own medians, in pair order, and the
    checksums, which every run must reproduce."""
    first = runs[0]
    if any(r["checksums"] != first["checksums"] for r in runs):
        raise RuntimeError("workload checksums changed between runs of one checkout")
    out = {**first, "layers": {}}
    for name, check in ((k, v["checksum"]) for k, v in first["layers"].items()):
        if any(r["layers"][name]["checksum"] != check for r in runs):
            raise RuntimeError(f"layer row {name} changed its checksum between runs")
        seconds = [r["layers"][name]["s"] for r in runs]
        row = {"checksum": check, "s": statistics.median(seconds), "s_runs": seconds}
        if len(runs) > 1:
            quartiles = statistics.quantiles(seconds, n=4)
            row["s_q1"], row["s_q3"] = quartiles[0], quartiles[2]
        out["layers"][name] = row
    return out


def _run_bench(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    return {"correct": doc["correct"], "failed": doc["failed"],
            **{k: v["value"] for k, v in doc["metrics"].items()}}


def _machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy as np

    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "cpus": os.cpu_count(), "cpu_model": model}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--baseline", help="a second checkout to measure alongside")
    ap.add_argument("--seeds", default="1,9")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="length of each bench/run.py run")
    ap.add_argument("--pairs", type=int, default=3,
                    help="layer processes per checkout, and bench/run.py runs per "
                         "checkout, workload and seed")
    ap.add_argument("--reps", type=int, default=15, help="repetitions of each layer row")
    ap.add_argument("--layers-of", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.layers_of:
        print(json.dumps(layers(os.path.abspath(args.layers_of), args.reps, seeds)))
        return 0
    if not args.out:
        ap.error("--out is required")

    roots = {"change": ROOT}
    if args.baseline:
        roots = {"baseline": os.path.abspath(args.baseline), **roots}
    settings = {k: v for k, v in vars(args).items() if k not in ("out", "baseline", "layers_of")}
    doc = {"machine": _machine(), "settings": settings, "checkouts": {}}
    layer_runs = {label: [] for label in roots}
    for pair in range(args.pairs):
        for label, root in list(roots.items())[::-1 if pair % 2 else 1]:
            layer_runs[label].append(_layers_subprocess(root, args.reps, seeds))
    for label, runs in layer_runs.items():
        doc["checkouts"][label] = {**_layer_summary(runs), "runs": {}}
    for workload in WORKLOADS:
        for seed in seeds:
            key = f"{workload}.{seed}"
            for pair in range(args.pairs):
                # Alternate which checkout runs first.
                order = list(roots.items())[::-1 if pair % 2 else 1]
                for label, root in order:
                    runs = doc["checkouts"][label]["runs"].setdefault(key, [])
                    runs.append(_run_bench(root, workload, seed, args.seconds))
            for label in roots:
                runs = doc["checkouts"][label]["runs"][key]
                medians = {m: statistics.median(r[m] for r in runs)
                           for m in ("wall_s", "setup_s", "peak_rss_mb", "max_rel_error")}
                if len(runs) > 1:
                    quartiles = statistics.quantiles([r["wall_s"] for r in runs], n=4)
                    medians["wall_s_q1"], medians["wall_s_q3"] = quartiles[0], quartiles[2]
                doc["checkouts"][label].setdefault("medians", {})[key] = medians
                print(label, key, " ".join(f"{m}={v:.4g}" for m, v in medians.items()),
                      flush=True)
    if args.baseline:
        base, change = doc["checkouts"]["baseline"], doc["checkouts"]["change"]
        doc["comparison"] = {
            "checksums_equal": base["checksums"] == change["checksums"],
            "wall_s_ratio": {k: change["medians"][k]["wall_s"] / base["medians"][k]["wall_s"]
                             for k in change["medians"]},
            "wall_s_pairs_won": {
                k: sum(c["wall_s"] < b["wall_s"]
                       for b, c in zip(base["runs"][k], change["runs"][k]))
                for k in change["runs"]},
            "layer_checksums_equal": {
                k: base["layers"][k]["checksum"] == row["checksum"]
                for k, row in change["layers"].items() if k in base["layers"]},
            "layer_s_pairs_won": {
                k: sum(c < b for b, c in zip(base["layers"][k]["s_runs"], row["s_runs"]))
                for k, row in change["layers"].items() if k in base["layers"]},
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads: seeded inputs, operations and checks.

Every input is drawn here from the run's seed, so the library only sees
the generated windows, point offsets and sampler seeds.  A round runs a
workload's whole operation list once; rounds of one run repeat the same
inputs, so every round must reproduce the first bit for bit.

Each operation is attempted once per round and fails when it raises,
misses its gate, misses a closed form or committed reference, or differs
from the first round.  ``max_rel_error`` is the worst relative deviation
from a closed form or from the projection law.  Each deviation is
floored at ``NOISE_SHARE`` of the tolerance its own check allows: below
that it is rounding noise that moves with the order of the arithmetic
(and is often exactly zero), not a loss of accuracy.
"""

import hashlib
import json
import math
import os
import time

import numpy as np

# Share of a check's tolerance below which its deviation reads as that
# share; 1e-2 keeps every floor far above rounding noise (the residual is
# about 3e-12 against a 1e-10 floor) and far below a failed check.
NOISE_SHARE = 1e-2
# Tolerance on committed reference values: it admits a few ulp of
# reordered arithmetic and rejects any real change of result.
REF_RTOL = 1e-12
# Closed-form tolerance for the quadrature volumes (spec rel_tol is 1e-12).
VOLUME_RTOL = 1e-10
# |z| bound on the Monte Carlo enclosed volume; the CLI's statistical gate
# uses the same threshold.  At 3 one seed in 370 would fail by chance.
MC_Z_MAX = 4.0
MESH_AREA_RTOL = 1e-3

# Sized so that each workload fits six or more rounds into a 40 s run
# on a 2-core host (README.md, "Sizing"); TINY is for the smoke test.
FULL = {
    "depth": 8,
    "mc_samples": 200_000,
    "residual_points": 25_000,
    "sample_count": 25_000,
    "stat_windows": 20,
    "stat_samples": 200_000,
    "mesh3_res": 128,
    "mesh4_res": 64,
}
TINY = {
    "depth": 5,
    "mc_samples": 20_000,
    "residual_points": 2_000,
    "sample_count": 1_000,
    "stat_windows": 4,
    "stat_samples": 20_000,
    "mesh3_res": 96,
    "mesh4_res": 48,
}


class Round:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (operation, problem)
        self.values = {}
        self.errors = {}  # label -> (relative deviation, tolerance of its check)
        self.seconds = {}

    def op(self, name, fn, check):
        """Run one operation; ``check(result)`` returns a list of problems."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
            self.seconds[name] = time.perf_counter() - start
            problems = check(result)
        except Exception as exc:  # an operation that raises counts as failed
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            return None
        for problem in problems:
            self.failures.append((name, problem))
        return result

    def error(self, label, deviation, tolerance):
        """Record a relative deviation; True when it is within tolerance."""
        self.errors[label] = (deviation, tolerance)
        return deviation <= tolerance

    def max_rel_error(self):
        return max(max(dev, NOISE_SHARE * tol) for dev, tol in self.errors.values())


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _disk_point(rng, radius, lo, hi):
    """A point uniform over the annulus lo*radius <= |x| <= hi*radius."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dist = radius * math.sqrt(rng.uniform(lo * lo, hi * hi))
    return dist * np.array([math.cos(angle), math.sin(angle)])


class Workload:
    name = ""
    pairs = ()

    def __init__(self, seed, sizes, outdir, reference):
        self.seed = int(seed)
        self.sizes = sizes
        self.outdir = outdir
        self.reference = reference
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def inputs(self):
        """The seeded inputs, as recorded in the run's output."""
        raise NotImplementedError

    def run_round(self, aa, arrays):
        """One pass over the operations; ``aa`` is the archarray package."""
        raise NotImplementedError

    def final_checks(self, aa, rnd):
        """Checks too costly for every round, run once after the timing."""

    def _path(self, name):
        return os.path.join(self.outdir, name)


class IntegralGate(Workload):
    """Patch area against C times clipped volume on one ball and one box window.

    The ball lies inside the base clear of the profile's series cap, so
    every integrand point goes through profile inversion; the box
    straddles the base boundary, so cells are discarded and leaves go to
    Monte Carlo.  Window cost depends on where a window sits, not on its
    size, so fixing the shape mix and the placement bands keeps the work
    comparable across seeds.
    """

    name = "integral-gate"
    pairs = ((4, 2),)

    def __init__(self, seed, sizes, outdir, reference):
        super().__init__(seed, sizes, outdir, reference)
        radius = 1.0  # base radius r * m_2 of the canonical n=4, k=2 array
        self.ball = (_disk_point(self.rng, radius, 0.55, 0.60),
                     radius * self.rng.uniform(0.20, 0.25))
        self.box = (_disk_point(self.rng, radius, 0.90, 1.00),
                    radius * self.rng.uniform(0.15, 0.20))
        self.quad_seed = int(self.rng.integers(0, 2 ** 31))

    def inputs(self):
        return {
            "ball_window": {"center": self.ball[0].tolist(), "radius": self.ball[1]},
            "box_window": {"center": self.box[0].tolist(), "half_width": self.box[1]},
            "quadrature_seed": self.quad_seed,
            "depth": self.sizes["depth"],
        }

    def _windows(self, aa):
        center, radius = self.ball
        ball = aa.Region.ball(center, radius)
        center, half = self.box
        box = aa.Region.box(center - half, center + half)
        return (("ball", ball), ("box", box))

    def run_round(self, aa, arrays):
        rnd = Round()
        h = arrays[(4, 2)]
        coeff = aa.sphere_area(h.k - 1, 1.0) * h.r_scale ** (h.k - 1)
        depth = self.sizes["depth"]
        for label, window in self._windows(aa):
            def gate(window=window):
                patch = h.patch_volume(window, depth=depth, seed=self.quad_seed)
                clip = window.clipped_volume(h.base, depth=depth, seed=self.quad_seed)
                return patch, clip

            def check(result, label=label):
                patch, clip = result
                rel = _rel(patch, coeff * clip)
                rnd.values[label] = (patch, clip)
                if not rnd.error(label, rel, aa.cli.INTEGRAL_GATE):
                    return [f"integral gate failed: rel {rel:.3e}"]
                return []

            rnd.op(f"integral_gate.{label}", gate, check)
        return rnd


class BulkEval(Workload):
    """Large pointwise batches: enclosed volume with Monte Carlo, the
    residual gate and surface sampling to CSV."""

    name = "bulk-eval"
    pairs = ((4, 3), (4, 2))

    def __init__(self, seed, sizes, outdir, reference):
        super().__init__(seed, sizes, outdir, reference)
        self.mc_seed = int(self.rng.integers(0, 2 ** 31))
        self.halton_start = 1 + int(self.rng.integers(0, 10 ** 6))
        self.sample_seed = int(self.rng.integers(0, 2 ** 31))

    def inputs(self):
        return {
            "mc_seed": self.mc_seed,
            "mc_samples": self.sizes["mc_samples"],
            "halton_start": self.halton_start,
            "residual_points": self.sizes["residual_points"],
            "sample_seed": self.sample_seed,
            "sample_count": self.sizes["sample_count"],
        }

    def run_round(self, aa, arrays):
        rnd = Round()
        ref = self.reference

        volume_out = self._path("volume.json")
        argv = ["volume", "--n", "4", "--k", "3", "--enclosed",
                "--samples", str(self.sizes["mc_samples"]),
                "--seed", str(self.mc_seed), "--out", volume_out]

        def volume_check(code):
            if code != 0:
                return [f"exit code {code}"]
            with open(volume_out) as fh:
                doc = json.load(fh)
            total = doc["total"]["numeric"]
            enclosed = doc["enclosed"]["numeric"]
            total_closed = aa.equizonal_total_volume(4)
            enclosed_closed = aa.equizonal_enclosed_volume(4)
            rnd.values["volume.json"] = _sha256(volume_out)
            z = (doc["enclosed"]["mc_value"] - enclosed_closed) / doc["enclosed"]["mc_error"]
            problems = []
            if not rnd.error("total_volume", _rel(total, total_closed), VOLUME_RTOL):
                problems.append(f"total volume {total!r} vs closed form {total_closed!r}")
            if not rnd.error("enclosed_volume", _rel(enclosed, enclosed_closed), VOLUME_RTOL):
                problems.append(f"enclosed volume {enclosed!r} vs closed form "
                                f"{enclosed_closed!r}")
            if not abs(z) <= MC_Z_MAX:
                problems.append(f"Monte Carlo z-score {z:.2f}")
            for key, value in (("total_volume_4_3", total), ("enclosed_volume_4_3", enclosed)):
                if not _rel(value, ref[key]) <= REF_RTOL:
                    problems.append(f"{key} {value!r} vs reference {ref[key]!r}")
            return problems

        rnd.op("cli.volume", lambda: aa.cli.run(argv), volume_check)

        h = arrays[(4, 2)]

        def residual():
            pts = aa.interior_points(h.base, self.sizes["residual_points"],
                                     boundary_offset=1e-6 * h.base.inradius(),
                                     start=self.halton_start)
            return float(np.max(np.abs(h.app_residual(pts))))

        def residual_check(worst):
            rnd.values["residual"] = worst
            # The residual is the area element's deviation from 1, so it is
            # already relative.
            if not rnd.error("residual", worst, aa.cli.RESIDUAL_GATE):
                return [f"residual gate failed: max {worst:.3e}"]
            return []

        rnd.op("residual_gate", residual, residual_check)

        sample_out = self._path("sample.csv")
        argv_sample = ["sample", "--n", "4", "--k", "3",
                       "--count", str(self.sizes["sample_count"]),
                       "--seed", str(self.sample_seed), "--out", sample_out]

        def sample_check(code):
            if code != 0:
                return [f"exit code {code}"]
            rnd.values["sample.csv"] = _sha256(sample_out)
            return []

        rnd.op("cli.sample", lambda: aa.cli.run(argv_sample), sample_check)
        return rnd

    def final_checks(self, aa, rnd):
        """Every sampled point lies on the n=4, k=3 surface."""
        def on_surface():
            pts = np.loadtxt(self._path("sample.csv"), delimiter=",", skiprows=1, ndmin=2)
            if pts.shape != (self.sizes["sample_count"], 4):
                return [f"sample CSV has shape {pts.shape}"]
            h = aa.make_archimedean(4, 3)
            worst = float(np.max(np.abs(h.boundary_form_eval(pts))))
            if not worst <= 1e-9:
                return [f"sample off the surface by {worst:.3e}"]
            return []

        rnd.op("sample_on_surface", on_surface, lambda problems: problems)


class StatMesh(Workload):
    """The statistical gate over 20 windows, run with two sample seeds as a
    user rechecking a verdict would, then OBJ mesh export.

    The regions are built afresh each round, so the first gate computes
    every clipped volume and the second finds them in the regions' cache.
    """

    name = "stat-mesh"
    pairs = ((4, 2), (3, 2))

    def __init__(self, seed, sizes, outdir, reference):
        super().__init__(seed, sizes, outdir, reference)
        count = sizes["stat_windows"]
        radius = 1.0  # base radius of the canonical n=4, k=2 array
        self.windows = []
        for i in range(count):
            # Uniform centers in the base disk, sizes as random_regions draws
            # them; half the windows are balls and half boxes, always.
            center = _disk_point(self.rng, radius, 0.0, 1.0)
            size = radius * self.rng.uniform(0.05, 0.5)
            self.windows.append(("ball" if i % 2 == 0 else "box", center, size))
        self.stat_seeds = [int(v) for v in self.rng.integers(0, 2 ** 31, size=2)]

    def inputs(self):
        return {
            "windows": [{"shape": s, "center": c.tolist(), "size": r}
                        for s, c, r in self.windows],
            "stat_seeds": self.stat_seeds,
            "stat_samples": self.sizes["stat_samples"],
            "mesh_res": [self.sizes["mesh3_res"], self.sizes["mesh4_res"]],
        }

    def run_round(self, aa, arrays):
        rnd = Round()
        h = arrays[(4, 2)]
        regions = [aa.Region.ball(c, s) if shape == "ball" else aa.Region.box(c - s, c + s)
                   for shape, c, s in self.windows]

        for i, seed in enumerate(self.stat_seeds):
            def stat_check(report, i=i):
                rnd.values[f"stat{i}"] = (report.chi2, report.p_value)
                if not report.passed(p_floor=aa.cli.P_FLOOR, z_threshold=aa.cli.Z_THRESHOLD,
                                     max_outliers=aa.cli.MAX_Z_OUTLIERS):
                    return [f"statistical gate failed: p {report.p_value:.3g}, "
                            f"max |z| {report.max_abs_z():.2f}"]
                return []

            rnd.op(f"statistical_gate.{i}",
                   lambda seed=seed: aa.app_statistical_test(
                       h, regions, self.sizes["stat_samples"], seed=seed),
                   stat_check)

        for n, res in ((3, self.sizes["mesh3_res"]), (4, self.sizes["mesh4_res"])):
            out = self._path(f"mesh{n}.obj")
            argv = ["mesh", "--n", str(n), "--k", "2", "--res", str(res), "--out", out]

            def mesh_check(code, out=out, n=n):
                if code != 0:
                    return [f"exit code {code}"]
                rnd.values[f"mesh{n}.obj"] = _sha256(out)
                return []

            rnd.op(f"cli.mesh.n{n}", lambda argv=argv: aa.cli.run(argv), mesh_check)
        return rnd

    def final_checks(self, aa, rnd):
        """Both meshes are closed spheres: watertight, Euler characteristic 2,
        area 4*pi, and the vertex and triangle counts on record."""
        ref = self.reference
        for n in (3, 4):
            def mesh_ok(n=n):
                verts, tris = read_obj(self._path(f"mesh{n}.obj"))
                problems = []
                edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                                tris[:, [2, 0]]]), axis=1)
                _, counts = np.unique(edges[:, 0] * len(verts) + edges[:, 1],
                                      return_counts=True)
                if not np.all(counts == 2):
                    problems.append("mesh is not watertight")
                euler = len(verts) - len(counts) + len(tris)
                if euler != 2:
                    problems.append(f"Euler characteristic {euler}")
                a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
                area = 0.5 * float(np.sum(np.linalg.norm(np.cross(b - a, c - a), axis=1)))
                if not rnd.error(f"mesh{n}_area", _rel(area, 4.0 * math.pi), MESH_AREA_RTOL):
                    problems.append(f"area {area!r} vs 4*pi")
                want = ref[f"mesh{n}"]
                if [len(verts), len(tris)] != [want["vertices"], want["triangles"]]:
                    problems.append(f"{len(verts)} vertices and {len(tris)} triangles, "
                                    f"reference {want['vertices']} and {want['triangles']}")
                if not _rel(area, want["area"]) <= 1e-9:
                    problems.append(f"area {area!r} vs reference {want['area']!r}")
                return problems

            rnd.op(f"mesh{n}_closed_sphere", mesh_ok, lambda problems: problems)


def read_obj(path):
    """Vertices and 0-based triangles of an OBJ file of v and f records."""
    with open(path, "rb") as fh:
        data = fh.read()
    split = data.find(b"\nf ") + 1
    verts = np.loadtxt(data[:split].splitlines(), usecols=(1, 2, 3), ndmin=2)
    tris = np.loadtxt(data[split:].splitlines(), usecols=(1, 2, 3), dtype=np.int64,
                      ndmin=2) - 1
    return verts, tris


WORKLOADS = {w.name: w for w in (IntegralGate, BulkEval, StatMesh)}

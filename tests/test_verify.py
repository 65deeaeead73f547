"""Surface sampling and the statistical projection check.

Oracles: the radical-inverse sequence has closed-form terms and exact
dyadic equidistribution; for n = 3 the base projection of uniform
sphere samples is uniform on the interval (the equal-area
correspondence), checked with a Kolmogorov-Smirnov bound; negative
controls use a custom warp whose area density varies by a factor of a
few across the base.
"""

import hashlib
import math
import types

import numpy as np
import pytest

from archarray import base as base_module
from archarray.array import CustomWarp, CylinderWarp, SphericalArray, make_archimedean
from archarray.base import Ball, ConvexPolygon, regular_polygon
from archarray.region import Region, philox
from archarray.special import gamma_q
from archarray.verify import (
    _base_uniform,
    app_statistical_test,
    halton,
    interior_points,
    random_regions,
    sample_surface,
)
from testutil import ks_statistic


def unit_disk():
    return Ball(np.zeros(2), 1.0)


# Halton sequence ------------------------------------------------------------


def test_halton_first_terms_base_two_and_three():
    pts = halton(7, 2)
    assert np.allclose(
        pts[:, 0], [1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8, 7 / 8]
    )
    assert np.allclose(
        pts[:, 1], [1 / 3, 2 / 3, 1 / 9, 4 / 9, 7 / 9, 2 / 9, 5 / 9]
    )


def test_halton_dyadic_block_is_exactly_equidistributed():
    # Indices 1 .. 2^m - 1 bit-reverse onto {a / 2^m}, a = 1 .. 2^m - 1.
    vals = np.sort(halton(1023, 1)[:, 0])
    assert np.array_equal(vals, np.arange(1, 1024) / 1024.0)


def test_halton_range_and_shape():
    pts = halton(500, 8)
    assert pts.shape == (500, 8)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)


def test_halton_start_offset():
    assert np.array_equal(halton(5, 3, start=3), halton(7, 3)[2:])


def test_halton_determinism():
    assert np.array_equal(halton(64, 2), halton(64, 2))


def test_halton_bytes_near_a_million():
    # Indices 999,983 .. 1,000,046 cross a new decimal and base-2..19 digit
    # count; the sha256 of the float64 bytes is pinned.
    digest = hashlib.sha256(halton(64, 8, start=999_983).tobytes()).hexdigest()
    assert digest == "6f68b83e4a3b31d164b787bf5c2331384aa992f646a7d13d5483f29bd3f50241"


def test_halton_rejects_high_dimension():
    with pytest.raises(ValueError):
        halton(10, 9)


def _halton_digit_loop(count, dim, start):
    """The radical inverses one base-b digit per pass, as ``halton`` once
    computed them: the reference its table of low-digit sums must equal."""
    idx = np.arange(start, start + count, dtype=np.int64)
    out = np.empty((count, dim))
    digit, term = np.empty_like(idx), np.empty(count)
    for d, b in enumerate((2, 3, 5, 7, 11, 13, 17, 19)[:dim]):
        top, n, value, scale = start + count - 1, idx.copy(), np.zeros(count), 1.0 / b
        while top > 0:
            np.divmod(n, b, out=(n, digit))
            value += np.multiply(digit, scale, out=term)
            top //= b
            scale /= b
        out[:, d] = value
    return out


# b^m, the largest power of each base up to 4,096: the size of its table.
_HALTON_TABLE_SIZES = (4096, 2187, 3125, 2401, 1331, 2197, 289, 361)
_HALTON_STARTS = sorted({0, 1, 999_983, 2 ** 40, 3 ** 25}.union(
    *({s - 1, s, s + 1} for s in _HALTON_TABLE_SIZES)))


@pytest.mark.parametrize("start", _HALTON_STARTS)
def test_halton_equals_the_digit_loop_bitwise(start):
    for dim in range(1, 9):
        for count in (1, 3000):
            want = _halton_digit_loop(count, dim, start)
            assert halton(count, dim, start=start).tobytes() == want.tobytes()


def test_halton_rejects_a_negative_start():
    for count, dim, start in ((8, 1, -3), (3, 2, -2), (1, 1, -1)):
        with pytest.raises(ValueError, match="start"):
            halton(count, dim, start=start)
    with pytest.raises(ValueError, match="start"):
        interior_points(unit_disk(), 10, start=-5)


def test_halton_box_counts_balance():
    pts = halton(4096, 2)
    frac = np.mean(np.all(pts < 0.5, axis=1))
    assert frac == pytest.approx(0.25, abs=0.01)


# Interior points ------------------------------------------------------------


def test_interior_points_inside_with_offsets(monkeypatch):
    monkeypatch.setattr(base_module, "SINGULAR_BAND_FRACTION", 0.2)
    base = Ball(np.zeros(2), 1.0)
    assert base.singular_band == 0.2
    pts = interior_points(base, 300, boundary_offset=0.1)
    assert pts.shape == (300, 2)
    assert np.all(base.signed_distance(pts) > 0.1)
    assert np.all(np.linalg.norm(pts, axis=1) > 0.2)


def test_interior_points_default_band():
    base = unit_disk()
    pts = interior_points(base, 200)
    assert np.all(base.contains(pts))
    assert np.all(base.singular_set_distance(pts) > base.singular_band)


def test_interior_points_polygon_avoids_medial_axis(monkeypatch):
    monkeypatch.setattr(base_module, "SINGULAR_BAND_FRACTION", 0.05)
    hexagon = ConvexPolygon(regular_polygon(6, inradius=1.0).vertices)
    assert hexagon.singular_band == 0.05
    pts = interior_points(hexagon, 200)
    assert np.all(hexagon.contains(pts))
    assert np.all(hexagon.singular_set_distance(pts) > 0.05)


def test_interior_points_deterministic_and_start():
    base = unit_disk()
    a = interior_points(base, 100)
    b = interior_points(base, 100)
    assert np.array_equal(a, b)
    c = interior_points(base, 100, start=7777)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("count", [0, -3])
def test_interior_points_rejects_empty_count(count):
    with pytest.raises(ValueError, match="count must be at least 1"):
        interior_points(unit_disk(), count)


def test_interior_points_checks_the_count_before_sampling(monkeypatch):
    import archarray.verify as verify

    def no_halton(*args, **kwargs):
        raise AssertionError("halton called before the count was checked")

    monkeypatch.setattr(verify, "halton", no_halton)
    with pytest.raises(TypeError):
        interior_points(unit_disk(), 2.5)
    monkeypatch.undo()
    assert interior_points(unit_disk(), np.int64(5)).shape == (5, 2)


def test_interior_points_impossible_quota():
    base = unit_disk()
    with pytest.raises(RuntimeError):
        interior_points(base, 10, boundary_offset=2.0)


# Surface sampling -----------------------------------------------------------


def test_sample_surface_shape_and_determinism():
    arr = make_archimedean(4, 2)
    a = sample_surface(arr, 1000, seed=5)
    b = sample_surface(arr, 1000, seed=5)
    c = sample_surface(arr, 1000, seed=6)
    assert a.shape == (1000, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_surface_points_satisfy_implicit_equation():
    for arr in (make_archimedean(3, 2), make_archimedean(5, 3)):
        pts = sample_surface(arr, 2000, seed=1)
        assert np.max(np.abs(arr.implicit_eval(pts))) < 1e-10


def test_sample_surface_sphere_radius():
    arr = make_archimedean(3, 2)
    pts = sample_surface(arr, 5000, seed=2)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-9


def test_sample_surface_base_projection_uniform():
    # Equal-area correspondence: the base coordinate of uniform sphere
    # samples is uniform on [-1, 1].
    arr = make_archimedean(3, 2)
    pts = sample_surface(arr, 20000, seed=3)
    x = pts[:, 0]
    stat = ks_statistic(x, lambda t: np.clip((t + 1.0) / 2.0, 0.0, 1.0))
    assert stat < 1.36 / math.sqrt(20000) * 1.3


def test_sample_surface_mean_fiber_radius():
    # For the unit sphere the mean fiber radius over a uniform base
    # coordinate is the average of sqrt(1 - x^2), which is pi/4.
    arr = make_archimedean(3, 2)
    pts = sample_surface(arr, 100000, seed=4)
    rho = np.linalg.norm(pts[:, 1:], axis=1)
    assert np.mean(rho) == pytest.approx(math.pi / 4.0, abs=3e-3)


def test_sample_surface_fiber_directions_isotropic():
    arr = make_archimedean(4, 3)
    pts = sample_surface(arr, 40000, seed=9)
    rho = np.linalg.norm(pts[:, 1:], axis=1)
    dirs = pts[:, 1:] / rho[:, None]
    assert np.max(np.abs(np.mean(dirs, axis=0))) < 0.02


def test_sample_surface_cylinder_mode():
    arr = SphericalArray(unit_disk(), CylinderWarp(2, r_scale=0.5))
    pts = sample_surface(arr, 3000, seed=7)
    rho = np.linalg.norm(pts[:, 2:], axis=1)
    assert np.max(np.abs(rho - 0.5)) < 1e-12
    assert np.all(arr.base.contains(pts[:, :2]))


def test_sample_surface_rejects_custom():
    arr = SphericalArray(unit_disk(), CustomWarp(2, warp=lambda pts: np.full(len(pts), 0.5)))
    with pytest.raises(ValueError):
        sample_surface(arr, 10)


@pytest.mark.parametrize("count", [0, -3])
def test_sample_surface_rejects_empty_count(count):
    with pytest.raises(ValueError, match="count must be at least 1"):
        sample_surface(make_archimedean(3, 2), count)


def test_sample_surface_refuses_a_fractional_count():
    arr = make_archimedean(3, 2)
    with pytest.raises(TypeError):
        sample_surface(arr, 2.5)
    assert sample_surface(arr, np.int64(5), seed=1).shape == (5, 3)


def test_sample_surface_reports_rate():
    base = make_archimedean(4, 2).base
    pts, _, rate = _base_uniform(base, 200000, philox(8, 0x5A11))
    assert pts.shape == (200000, 2)
    assert 0.0 < rate <= 1.0


# Random regions -------------------------------------------------------------


def test_random_regions_shapes_and_sizes():
    base = unit_disk()
    regions = random_regions(base, 30, seed=0)
    assert len(regions) == 30
    kinds = {r.shape for r in regions}
    assert kinds == {"box", "ball"}
    for r in regions:
        if r.shape == "ball":
            center, size = r.center, r.radius
        else:
            center = 0.5 * (r.lo + r.hi)
            size = 0.5 * (r.hi - r.lo)[0]
        assert base.contains(center)
        assert 0.05 * base.inradius() <= size <= 0.5 * base.inradius()


def test_random_regions_deterministic_by_seed():
    base = unit_disk()
    a = random_regions(base, 10, seed=3)
    b = random_regions(base, 10, seed=3)
    c = random_regions(base, 10, seed=4)
    for ra, rb in zip(a, b):
        assert ra.describe() == rb.describe()
    assert any(ra.describe() != rc.describe() for ra, rc in zip(a, c))


def test_random_regions_positive_clipped_volume():
    base = regular_polygon(6, inradius=0.7)
    for r in random_regions(base, 10, seed=1):
        assert r.clipped_volume(base, depth=8) > 0.0


def test_random_regions_rejects_zero_count():
    with pytest.raises(ValueError):
        random_regions(unit_disk(), 0)


# Statistical test -----------------------------------------------------------


def test_statistical_test_passes_for_archimedean():
    arr = make_archimedean(4, 2)
    regions = random_regions(arr.base, 12, seed=11)
    report = app_statistical_test(arr, regions, 50000, seed=12)
    assert report.passed()
    assert report.p_value >= 0.001
    assert report.count_large_z(4.0) <= 1
    assert report.dof == 12
    assert report.samples == 50000


def test_statistical_test_passes_for_cylinder():
    arr = SphericalArray(regular_polygon(5, inradius=0.8), CylinderWarp(2, r_scale=0.3))
    regions = random_regions(arr.base, 10, seed=21)
    # the smallest drawn region holds ~0.23% of the mass, so the sample
    # count must be large enough to clear the expected-hits floor
    report = app_statistical_test(arr, regions, 60000, seed=22)
    assert report.passed()


def test_statistical_report_internal_consistency():
    arr = make_archimedean(4, 2)
    regions = random_regions(arr.base, 8, seed=31)
    report = app_statistical_test(arr, regions, 20000, seed=32)
    chi2 = sum(s.z**2 for s in report.scores)
    assert report.chi2 == pytest.approx(chi2, rel=1e-12)
    assert report.p_value == pytest.approx(
        gamma_q(report.dof / 2.0, report.chi2 / 2.0), rel=1e-12
    )
    assert report.max_abs_z() == max(abs(s.z) for s in report.scores)
    for s in report.scores:
        assert s.expected_hits == pytest.approx(report.samples * s.expected)
        assert s.observed == pytest.approx(
            s.expected, abs=6.0 * math.sqrt(s.expected / report.samples) + 1e-9
        )


def test_statistical_test_deterministic():
    arr = make_archimedean(3, 2)
    regions = random_regions(arr.base, 6, seed=41)
    a = app_statistical_test(arr, regions, 10000, seed=42)
    b = app_statistical_test(arr, regions, 10000, seed=42)
    c = app_statistical_test(arr, regions, 10000, seed=43)
    assert a.chi2 == b.chi2
    assert a.chi2 != c.chi2


def test_statistical_test_flags_low_expected_regions():
    arr = make_archimedean(4, 2)
    tiny = [r for r in random_regions(arr.base, 3, seed=51)]
    from archarray.region import Region

    tiny.append(Region.ball([0.0, 0.0], 0.01))
    report = app_statistical_test(arr, tiny, 20000, seed=52)
    assert report.low_expected == [3]
    assert not report.passed()


def test_statistical_test_fails_for_non_archimedean_warp():
    # Negative control: a warp whose area density varies across the
    # base.  Samples stay base-uniform while the expectations follow
    # the true surface measure, so the fit must break down.
    base = unit_disk()
    arr = SphericalArray(base, CustomWarp(
        2,
        warp=lambda pts: 0.2 + 0.6 * np.einsum("nd,nd->n", pts, pts),
        warp_gradient=lambda pts: 1.2 * pts,
    ))
    regions = random_regions(base, 12, seed=61)
    report = app_statistical_test(arr, regions, 50000, seed=62)
    assert not report.passed()
    assert report.p_value < 1e-6
    assert report.count_large_z(4.0) >= 5


def test_statistical_test_requires_regions():
    arr = make_archimedean(3, 2)
    with pytest.raises(ValueError):
        app_statistical_test(arr, [], 1000)


def test_statistical_test_refuses_a_fractional_sample_count():
    arr = make_archimedean(3, 2)
    regions = random_regions(arr.base, 4, seed=71)
    with pytest.raises(TypeError):
        app_statistical_test(arr, regions, 2500.5)
    assert app_statistical_test(arr, regions, np.int64(2500), seed=72).samples == 2500


def test_report_serializes_to_plain_data():
    arr = make_archimedean(3, 2)
    regions = random_regions(arr.base, 4, seed=71)
    report = app_statistical_test(arr, regions, 5000, seed=72)
    doc = report.as_dict()
    assert set(doc) == {"regions", "aggregate", "samples",
                        "low_expected_regions"}
    assert len(doc["regions"]) == 4
    assert set(doc["aggregate"]) == {"chi2", "dof", "p"}
    for entry in doc["regions"]:
        assert set(entry) == {"region", "expected", "observed", "z"}


# Window counts on sorted samples --------------------------------------------


def _edge_samples(regions, rng, base_lo, base_hi, count):
    """Uniform points over the base box, plus for every window and axis the
    points on its bounding box's faces, 1 ulp either side of them, and up
    to 2 ulp of the half-width outside, the other coordinates at the
    window's centre."""
    pts = [rng.uniform(base_lo, base_hi, size=(count, len(base_lo)))]
    for u in regions:
        lo, hi = u.bounding_box()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for axis in range(len(lo)):
            for face, sign in ((lo[axis], -1.0), (hi[axis], 1.0)):
                outside = face + sign * np.spacing(half[axis]) * np.array([0.5, 1.0, 2.0])
                for value in (np.nextafter(face, -sign * np.inf), face,
                              np.nextafter(face, sign * np.inf), *outside):
                    p = mid.copy()
                    p[axis] = value
                    pts.append(p[None, :])
    return np.concatenate(pts)


def _window_sets():
    # Balls whose rounded d.d <= r^2 test accepts points 1-3 ulp outside
    # centre +- radius along the first axis, one whose lower bound is 0.0
    # (so an ulp of the bound is far too small a margin), and windows
    # straddling the base boundary.
    one = [Region.ball([0.2739233746429086], 0.2770888466262316),
           Region.ball([0.5], 0.5), Region.ball([0.7263578446997732], 0.5460466080466008),
           Region.box([-1.3], [-0.6]), Region.box([0.1], [0.1 + 2 ** -40])]
    two = [Region.ball([0.2739233746429086, 0.1], 0.2770888466262316),
           Region.ball([0.5, 0.2], 0.5),
           Region.ball([-0.40057621892523043, 0.3], 0.42846034898568186),
           Region.ball([0.9, -0.2], 0.4), Region.box([-1.2, -0.3], [-0.7, 0.2]),
           Region.box([0.0, 0.0], [0.5, 0.25])]
    three = [Region.ball([0.2739233746429086, 0.0, -0.1], 0.2770888466262316),
             Region.ball([0.25, 0.1, 0.0], 0.25),
             Region.ball([0.0, 0.8, 0.3], 0.5), Region.box([0.6, -0.2, -0.2], [1.4, 0.2, 0.3]),
             Region.box([-0.5, -0.5, -0.5], [0.25, 0.0, 0.5])]
    return [(1, one), (2, two), (3, three)]


@pytest.mark.parametrize("dim, regions", _window_sets(), ids=["1d", "2d", "3d"])
def test_statistical_counts_equal_all_pairs_counts(monkeypatch, dim, regions):
    import archarray.verify as verify

    base = Ball(np.zeros(dim), 1.0)
    lo, hi = base.bounding_box()
    xb = _edge_samples(regions, np.random.default_rng(dim), lo, hi, 3000)
    # The first ball accepts a sample beyond centre - radius, so a slice cut
    # at the bounding box misses it; the second accepts one more than 8 ulp
    # of its bound beyond it, so widening by ulps of the bound misses it too.
    for u, margin in zip(regions, (0, 8)):
        bound = u.bounding_box()[0][0]
        assert np.any(u.contains(xb) & (xb[:, 0] < bound - margin * np.spacing(abs(bound))))
    monkeypatch.setattr(verify, "_base_uniform", lambda base, count, philox: (xb, 1, 1.0))
    monkeypatch.setattr(verify, "_expected_fractions",
                        lambda h, regions: [0.1] * len(regions))
    h = types.SimpleNamespace(base=base)
    report = app_statistical_test(h, regions, len(xb), seed=3)
    for u, score in zip(regions, report.scores):
        assert score.observed == np.count_nonzero(u.contains(xb)) / len(xb)


def test_statistical_report_pinned_values():
    # chi2, p and the hit counts of one seeded report, as the gate that
    # tested every sample against every window computed them.
    arr = make_archimedean(4, 2)
    regions = random_regions(arr.base, 8, seed=31)
    report = app_statistical_test(arr, regions, 20000, seed=32)
    assert report.chi2 == 6.4509546187147615
    assert report.p_value == 0.5968527601406715
    assert [s.observed for s in report.scores] == [
        0.0865, 0.0043, 0.0322, 0.156, 0.20455, 0.01355, 0.1538, 0.22865]

"""Region windows and quadrature over region-domain intersections."""

import math

import numpy as np
import pytest

from archarray.base import Ball, ConvexPolygon, Ellipse, regular_polygon
from archarray.region import (
    Region,
    clipped_quadrature,
    region_from_description,
)
from archarray.special import ball_volume


# Region basics --------------------------------------------------------------


def test_box_region_basics():
    r = Region.box([0.0, 0.0], [2.0, 3.0])
    assert r.volume() == pytest.approx(6.0)
    assert r.contains([1.0, 1.0])
    assert not r.contains([2.5, 1.0])
    lo, hi = r.bounding_box()
    assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [2.0, 3.0])


def test_ball_region_basics():
    r = Region.ball([1.0, 0.0, 0.0], 2.0)
    assert r.volume() == pytest.approx(ball_volume(3, 2.0))
    assert r.contains([2.9, 0.0, 0.0])
    assert not r.contains([3.1, 0.0, 0.0])


def test_region_validation():
    with pytest.raises(ValueError):
        Region.box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        Region.box([0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        Region.ball([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        Region("wedge")
    with pytest.raises(TypeError):
        Region("box", lo=[0.0], hi=[1.0], color="red")


def test_region_describe_round_trip():
    for r in (Region.box([-1.0, 0.5], [0.0, 2.0]), Region.ball([0.3, 0.4], 1.2)):
        clone = region_from_description(r.describe())
        assert clone.shape == r.shape
        assert clone.volume() == pytest.approx(r.volume(), rel=1e-14)
    with pytest.raises(ValueError):
        region_from_description({"shape": "cone"})


# exact geometric cases ------------------------------------------------------


def test_box_inside_polygon_is_exact():
    # Box fully interior to the square: every cell resolves by corner
    # tests, no Monte Carlo at all, so the volume is exact.
    sq = ConvexPolygon([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])
    r = Region.box([-0.5, -0.25], [0.75, 0.5])
    out = clipped_quadrature(sq, r)
    assert out.volume == pytest.approx(1.25 * 0.75, abs=1e-15)
    assert out.error_estimate == 0.0


def test_region_covering_domain_gives_domain_volume():
    poly = regular_polygon(6, circumradius=1.0)
    r = Region.box([-2.0, -2.0], [2.0, 2.0])
    out = clipped_quadrature(poly, r)
    assert out.volume == pytest.approx(poly.volume(), rel=1e-4)
    assert abs(out.volume - poly.volume()) < 6.0 * max(out.error_estimate, 1e-12)


def test_disjoint_region_is_zero():
    b = Ball([0.0, 0.0], 1.0)
    out = clipped_quadrature(b, Region.box([5.0, 5.0], [6.0, 6.0]))
    assert out.volume == 0.0 and out.integral == 0.0


def test_half_plane_split_of_disk():
    b = Ball([0.0, 0.0], 1.0)
    r = Region.box([0.0, -2.0], [2.0, 2.0])
    out = clipped_quadrature(b, r)
    assert out.volume == pytest.approx(math.pi / 2.0, rel=1e-3)
    assert abs(out.volume - math.pi / 2.0) < 4.0 * out.error_estimate


def test_ball_region_in_ellipse():
    e = Ellipse([0.0, 0.0], [2.0, 1.0])
    r = Region.ball([0.0, 0.0], 0.5)
    out = clipped_quadrature(e, r)
    # The ball region is entirely inside the ellipse.
    assert out.volume == pytest.approx(math.pi * 0.25, rel=1e-4)


def test_lens_intersection_of_disks():
    # Two unit disks at distance 1: lens area 2 pi/3 - sqrt(3)/2.
    b = Ball([0.0, 0.0], 1.0)
    r = Region.ball([1.0, 0.0], 1.0)
    out = clipped_quadrature(b, r)
    exact = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
    assert out.volume == pytest.approx(exact, rel=1e-3)
    assert abs(out.volume - exact) < 4.0 * out.error_estimate


def test_three_dimensional_ball_volume():
    b = Ball([0.0, 0.0, 0.0], 1.0)
    r = Region.box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    out = clipped_quadrature(b, r, depth=10)
    assert out.volume == pytest.approx(4.0 * math.pi / 3.0, rel=5e-3)
    assert abs(out.volume - 4.0 * math.pi / 3.0) < 4.0 * out.error_estimate


def test_error_estimate_bounds_error():
    rng = np.random.default_rng(9)
    b = Ball([0.0, 0.0], 1.0)
    for _ in range(10):
        c = rng.uniform(-0.8, 0.8, size=2)
        rad = float(rng.uniform(0.2, 0.8))
        r = Region.ball(c, rad)
        out = clipped_quadrature(b, r, depth=8)
        exact = _disk_intersection_area(1.0, rad, float(np.linalg.norm(c)))
        assert abs(out.volume - exact) < max(5.0 * out.error_estimate, 1e-9)


def _disk_intersection_area(r1, r2, d):
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rmin = min(r1, r2)
        return math.pi * rmin * rmin
    a1 = math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    a2 = math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    return (
        r1 * r1 * (a1 - math.sin(2.0 * a1) / 2.0)
        + r2 * r2 * (a2 - math.sin(2.0 * a2) / 2.0)
    )


# integrals ------------------------------------------------------------------


def test_polynomial_integral_on_interior_box():
    sq = ConvexPolygon([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])
    r = Region.box([0.0, 0.0], [1.0, 1.0])
    out = clipped_quadrature(sq, r, integrand=lambda p: p[:, 0] * p[:, 1])
    assert out.integral == pytest.approx(0.25, abs=1e-12)


def test_constant_integrand_ratio_is_exactly_one():
    # The Monte Carlo nodes are shared between the volume and the
    # integral, so a constant integrand cancels exactly even where the
    # cells are unresolved.
    b = Ball([0.0, 0.0], 1.0)
    r = Region.ball([0.7, 0.2], 0.6)
    out = clipped_quadrature(b, r, integrand=lambda p: np.full(len(p), 7.5))
    assert out.integral == pytest.approx(7.5 * out.volume, rel=1e-15)


def test_smooth_integrand_on_clipped_disk():
    # int over half disk (x >= 0) of x dA = 2/3.
    b = Ball([0.0, 0.0], 1.0)
    r = Region.box([0.0, -2.0], [2.0, 2.0])
    out = clipped_quadrature(b, r, integrand=lambda p: p[:, 0])
    assert out.integral == pytest.approx(2.0 / 3.0, rel=1e-3)


# determinism and caching ----------------------------------------------------


def test_deterministic_for_fixed_seed():
    b = Ball([0.0, 0.0], 1.0)
    r = Region.ball([0.5, 0.0], 0.7)
    a = clipped_quadrature(b, r, seed=123)
    c = clipped_quadrature(b, r, seed=123)
    assert a.volume == c.volume and a.integral == c.integral
    d = clipped_quadrature(b, r, seed=124)
    assert d.volume != a.volume


def test_clipped_volume_cache():
    b = Ball([0.0, 0.0], 1.0)
    r = Region.ball([0.5, 0.0], 0.7)
    v1 = r.clipped_volume(b)
    assert r.clipped_volume(b) == v1
    # An equal base built anew shares the entry: the key is the base's value.
    assert r.clipped_volume(Ball([0.0, 0.0], 1.0)) == v1
    assert len(r._clip_cache) == 1


def test_clipped_volume_cache_survives_id_reuse():
    # Each ball is freed before the next is built, so CPython hands the
    # new one the freed id; a cache keyed by id would then return the
    # other radius's volume.
    r = Region.ball([0.1, 0.0], 0.6)
    want = {rad: clipped_quadrature(Ball([0.0, 0.0], rad), r, depth=8).volume
            for rad in (1.0, 0.1)}
    for radius in (1.0, 0.1, 1.0, 0.1):
        b = Ball([0.0, 0.0], radius)
        got = r.clipped_volume(b, depth=8)
        del b
        assert got == want[radius]
        assert got == pytest.approx(math.pi * min(radius, 0.6) ** 2, rel=1e-2)


def test_ball_subclass_keeps_geometry_fast_paths():
    class TaggedBall(Ball):
        pass

    r = Region.box([-0.3, -0.9], [1.2, 0.4])
    for integrand in (None, lambda p: 1.0 + p[:, 0] ** 2):
        plain = clipped_quadrature(Ball([0.1, 0.0], 1.0), r, integrand, depth=8)
        tagged = clipped_quadrature(TaggedBall([0.1, 0.0], 1.0), r, integrand, depth=8)
        assert (tagged.volume, tagged.integral, tagged.error_estimate) == (
            plain.volume, plain.integral, plain.error_estimate)


def test_depth_controls_resolution():
    b = Ball([0.0, 0.0], 1.0)
    r = Region.box([-1.0, -1.0], [1.0, 1.0])
    coarse = clipped_quadrature(b, r, depth=4)
    fine = clipped_quadrature(b, r, depth=12)
    assert abs(fine.volume - math.pi) < abs(coarse.volume - math.pi)
    assert fine.error_estimate < coarse.error_estimate


# one-dimensional cases ------------------------------------------------------


def test_interval_base_exact():
    b = Ball([0.0], 1.0)  # the interval [-1, 1]
    r = Region.box([0.25], [3.0])
    out = clipped_quadrature(b, r)
    assert out.volume == pytest.approx(0.75, abs=1e-15)
    assert out.error_estimate == 0.0


def test_interval_integrand_exact():
    b = Ball([0.0], 2.0)
    r = Region.box([-1.0], [1.0])
    out = clipped_quadrature(b, r, integrand=lambda p: p[:, 0] ** 2)
    assert out.integral == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_interval_disjoint():
    b = Ball([0.0], 1.0)
    out = clipped_quadrature(b, Region.box([2.0], [3.0]))
    assert out.volume == 0.0


def test_dimension_mismatch_raises():
    b = Ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        clipped_quadrature(b, Region.box([0.0], [1.0]))


# the level-wise cell walk ---------------------------------------------------

def _smooth(p):
    return 1.0 + p[:, 0] ** 2 - 0.5 * p[:, -1]


# (volume, integral of _smooth, error estimate) at depth 9, seed 5, as the
# cell-at-a-time walk computed them.  Monte Carlo leaves decide the fourth
# digit, so a leaf drawing from another leaf's stream moves every row.
PINNED_WALK = [
    (Ball([0.0, 0.0], 1.0), Region.ball([0.6, 0.3], 0.5),
     (0.6724525451660157, 0.8120571674242755, 0.0003744454164152042)),
    (Ball([0.1, 0.0, -0.2], 0.9), Region.box([-0.2, -0.4, -0.5], [0.9, 0.5, 0.3]),
     (0.7801386108398439, 0.9885900044801862, 0.00018823934504750235)),
    (Ellipse([0.2, -0.1], [1.5, 0.7]), Region.box([0.5, -0.6], [2.0, 0.2]),
     (0.87555908203125, 2.0197973153719344, 0.00022538760371637652)),
    (regular_polygon(5, circumradius=1.3), Region.ball([-0.7, 0.5], 0.6),
     (0.8318564592486797, 1.0032624302444222, 0.00040160827388875425)),
]


@pytest.mark.parametrize("base, region, pinned", PINNED_WALK,
                         ids=["ball2", "ball3", "ellipse", "pentagon"])
def test_walk_reproduces_pinned_values(base, region, pinned):
    volume, integral, error = pinned
    for integrand, want in ((None, volume), (_smooth, integral)):
        out = clipped_quadrature(base, region, integrand, depth=9, seed=5)
        assert out.volume == pytest.approx(volume, rel=1e-14)
        assert out.integral == pytest.approx(want, rel=1e-14)
        assert out.error_estimate == pytest.approx(error, rel=1e-14)


def test_patch_volume_evaluates_the_integrand_in_few_blocks(monkeypatch):
    from archarray.array import make_archimedean
    from archarray.region import _BLOCK

    h = make_archimedean(4, 2)
    density = h._area_density
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return density(pts)

    monkeypatch.setattr(h, "_area_density", counted)
    h.patch_volume(Region.ball([0.55, -0.1], 0.22), depth=8, seed=1)
    # The cell-at-a-time walk made 108 calls here, one per accepted cell
    # or Monte Carlo leaf with hits.
    assert 1 <= len(sizes) <= 3 and max(sizes) <= _BLOCK

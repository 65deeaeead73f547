"""Region windows and quadrature over region-domain intersections."""

import math

import numpy as np
import pytest

from archarray.base import Ball, ConvexPolygon, Ellipse, box_corners, regular_polygon
from archarray.region import (
    MC_POINTS,
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


def test_walk_stops_when_no_cell_is_left(monkeypatch):
    import archarray.region as region

    halve, rows = region._halve, []
    monkeypatch.setattr(region, "_halve", lambda lo, hi: rows.append(len(lo)) or halve(lo, hi))
    base = Ball([0.0, 0.0], 1.0)
    # A box deep inside the base is accepted whole at level 0, and no level follows.
    out = clipped_quadrature(base, Region.box([-0.25, -0.5], [0.25, 0.25]))
    assert rows == []
    assert (out.volume, out.cells_accepted, out.cells_discarded, out.mc_leaves) == (0.375, 1, 0, 0)
    # A window across the rim keeps undecided cells, so it halves at every level.
    out = clipped_quadrature(base, Region.ball([0.9, 0.0], 0.3), depth=6)
    assert len(rows) == 6 and out.mc_leaves > 0


def test_patch_walk_halves_twice_per_level_at_most(monkeypatch):
    # Accepted cells are refined in one array along with the walk, so a
    # level halves at most the undecided cells and that array.
    import archarray.region as region
    from archarray.array import make_archimedean

    h = make_archimedean(4, 2)
    halve, rows = region._halve, []
    monkeypatch.setattr(region, "_halve", lambda lo, hi: rows.append(len(lo)) or halve(lo, hi))
    for window in (Region.ball([0.55, -0.1], 0.22), Region.box([0.75, -0.3], [1.15, 0.1]),
                   Region.box([-0.4, -0.3], [0.99, 0.3])):
        rows.clear()
        h.patch_volume(window, depth=8, seed=1)
        assert 0 < len(rows) <= 2 * 8 and 0 not in rows


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


# Monte Carlo leaf streams ---------------------------------------------------

# (mc_points, dim, depth): with mc_points * dim not a multiple of 4 leaves
# end inside a Philox block, and the leaves outnumber one group of
# _BLOCK // mc_points.  The MC_POINTS cases end with 92 and 104 leaves,
# more than two groups.
LEAF_CASES = [(3, 2, 19), (5, 2, 18), (3, 3, 15), (5, 3, 13), (MC_POINTS, 2, 9),
              (MC_POINTS, 3, 7)]


@pytest.mark.parametrize("mc_points, dim, depth", LEAF_CASES)
def test_leaf_i_draws_the_stream_of_philox_jumped_i(monkeypatch, cold_leaf_memo, mc_points, dim,
                                                    depth):
    from archarray import region as region_module
    from archarray.region import _BLOCK

    monkeypatch.setattr(region_module, "MC_POINTS", mc_points)
    generator = np.random.Generator
    keys, draws = [], []

    class Recording(generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            keys.append(bit_generator.state["state"]["key"].copy())

        def random(self, *args, **kwargs):
            out = super().random(*args, **kwargs)
            draws.append(out.copy())
            return out

    monkeypatch.setattr(np.random, "Generator", Recording)
    ones = np.ones(dim)
    out = clipped_quadrature(Ball(np.zeros(dim), 1.0), Region.box(-1.5 * ones, 1.5 * ones),
                             depth=depth, seed=7)
    assert out.error_estimate > 0.0
    groups = 2 if mc_points == MC_POINTS else 1
    assert len(keys) == 1 and len(draws) > groups * (_BLOCK // mc_points)
    philox = np.random.Philox(key=keys[0])
    for i, got in enumerate(draws):
        want = generator(philox.jumped(i)).random((mc_points, dim))
        assert np.array_equal(got, want), i


def test_quadrature_never_jumps_the_philox_stream(monkeypatch, cold_leaf_memo):
    class NoJumps(np.random.Philox):
        def jumped(self, jumps=1):
            raise AssertionError("Philox.jumped called")

    monkeypatch.setattr(np.random, "Philox", NoJumps)
    base, region, (volume, integral, error) = PINNED_WALK[0]
    out = clipped_quadrature(base, region, _smooth, depth=9, seed=5)
    assert (out.volume, out.integral, out.error_estimate) == pytest.approx(
        (volume, integral, error), rel=1e-14)


def test_patch_volume_fills_the_clipped_volume_cache(monkeypatch):
    import archarray.region as region_module
    from archarray.array import make_archimedean

    h = make_archimedean(4, 2)
    # The box straddles the base boundary, so Monte Carlo leaves decide
    # the volume's last digits.
    window = Region.box([0.75, -0.3], [1.15, 0.1])
    h.patch_volume(window, depth=8, seed=3)
    walks = []
    walk = region_module.clipped_quadrature
    monkeypatch.setattr(region_module, "clipped_quadrature",
                        lambda *args, **kwargs: walks.append(args) or walk(*args, **kwargs))
    cached = window.clipped_volume(h.base, depth=8, seed=3)
    assert walks == []
    fresh = Region.box([0.75, -0.3], [1.15, 0.1]).clipped_volume(h.base, depth=8, seed=3)
    assert len(walks) == 1
    assert cached.hex() == fresh.hex()


def test_walk_reports_its_counters():
    base, region, _ = PINNED_WALK[0]
    out = clipped_quadrature(base, region, depth=9, seed=5)
    assert (out.cells_accepted, out.cells_discarded, out.mc_leaves) == (58, 30, 92)
    # The counters do not depend on the integrand, and the 1-D and
    # empty cases report no cells.
    again = clipped_quadrature(base, region, _smooth, depth=9, seed=5)
    assert (again.cells_accepted, again.cells_discarded, again.mc_leaves) == (58, 30, 92)
    far = clipped_quadrature(base, Region.box([5.0, 5.0], [6.0, 6.0]))
    assert (far.cells_accepted, far.cells_discarded, far.mc_leaves) == (0, 0, 0)
    line = clipped_quadrature(Ball([0.0], 1.0), Region.box([0.0], [0.5]))
    assert (line.cells_accepted, line.cells_discarded, line.mc_leaves) == (0, 0, 0)


# column kernels ---------------------------------------------------------------

def _ulp_neighbours(pts):
    """Each point with every coordinate moved by -1, 0 and +1 ulp."""
    out = [pts]
    for j in range(pts.shape[1]):
        for direction in (-np.inf, np.inf):
            moved = pts.copy()
            moved[:, j] = np.nextafter(moved[:, j], direction)
            out.append(moved)
    return np.concatenate(out)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 9])
def test_ball_rho_equals_the_norm_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    center = rng.normal(size=dim)
    ball = Ball(center, 1.0)
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        pts = center + scale * rng.normal(size=(500, dim))
        want = np.linalg.norm(pts - center, axis=1)
        assert np.array_equal(ball._rho(pts), want)
    # Columns of very different size in one point.
    pts = center + rng.normal(size=(500, dim)) * np.logspace(-150, 150, dim)
    assert np.array_equal(ball._rho(pts), np.linalg.norm(pts - center, axis=1))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_to_box_equals_the_broadcast_affine_map(dim):
    from archarray.base import to_box

    rng = np.random.default_rng(dim)
    u = rng.random((1000, dim))
    lo, hi = rng.normal(size=dim), rng.normal(size=dim) + 3.0
    want = lo[None, :] + u * (hi - lo)[None, :]
    got = to_box(u, lo, hi)
    assert got is u and np.array_equal(got, want)


def _points_on_ball_and_box(rng):
    angle = rng.uniform(0.0, 2.0 * math.pi, 200)
    center, radius = np.array([0.3, -0.2]), 0.45
    sphere = center + radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    lo, hi = np.array([-0.3, 0.1]), np.array([0.7, 0.45])
    t = rng.uniform(size=(200, 2))
    faces = lo + t * (hi - lo)
    faces[:50, 0], faces[50:100, 0] = lo[0], hi[0]
    faces[100:150, 1], faces[150:, 1] = lo[1], hi[1]
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    exact = np.array([[3.0, 4.0], [-3.0, 4.0], [0.0, 5.0], [5.0, 0.0]])  # |d|^2 == 25
    pts = _ulp_neighbours(np.concatenate([sphere, faces, corners]))
    return pts, (center, radius), (lo, hi), _ulp_neighbours(exact)


def test_region_contains_matches_the_row_formulas_on_boundaries():
    pts, (center, radius), (lo, hi), exact = _points_on_ball_and_box(np.random.default_rng(4))
    box = Region.box(lo, hi)
    want = np.all((pts >= lo) & (pts <= hi), axis=-1)
    assert np.array_equal(box.contains(pts), want)
    assert want.any() and not want.all()
    for c, r, p in ((center, radius, pts), (np.zeros(2), 5.0, exact)):
        d = p - c
        want = np.einsum("...d,...d->...", d, d) <= r ** 2
        got = Region.ball(c, r).contains(p)
        assert np.array_equal(got, want)
        assert want.any() and not want.all()
        # The base ball's test is the rounded norm against the radius.
        assert np.array_equal(Ball(c, r).inside_mask(p), np.linalg.norm(d, axis=1) <= r)
    # A single point gives a single answer; points of another dimension
    # are refused.
    assert box.contains(lo) and not box.contains(np.nextafter(lo, -np.inf))
    assert Region.ball(np.zeros(2), 5.0).contains([3.0, 4.0])
    for region in (box, Region.ball(center, radius)):
        with pytest.raises(ValueError, match="dimension"):
            region.contains(np.zeros((4, 3)))


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
def test_region_and_ball_misses_box_match_the_row_formulas(dim):
    # The state is 0 exactly where the row formula says the box misses.
    rng = np.random.default_rng(dim)
    lo = rng.uniform(-1.0, 1.0, size=(2000, dim))
    hi = lo + rng.uniform(0.0, 0.5, size=(2000, dim))
    center, radius = rng.uniform(-0.3, 0.3, size=dim), 0.3 * math.sqrt(dim)
    # Boxes with a face, or a corner, on the sphere, and 1 ulp either side.
    face = center + radius * np.eye(dim)[rng.integers(0, dim, 300)] * rng.choice([-1, 1], (300, 1))
    corner = _rim_of_ball(rng, center, radius, 300)
    for rim in (face, corner):
        for p in (rim, np.nextafter(rim, -np.inf), np.nextafter(rim, np.inf)):
            out = p + (p - center) * rng.uniform(0.0, 0.5, (300, 1))
            lo, hi = np.concatenate([lo, np.minimum(p, out)]), np.concatenate([hi, np.maximum(p, out)])
    gap = np.maximum(np.maximum(lo - center, center - hi), 0.0)
    want = np.sum(gap * gap, axis=-1) > radius ** 2
    assert want.any() and not want.all()
    assert np.array_equal(Region.ball(center, radius).box_state(lo, hi) == 0, want)
    assert np.array_equal(Ball(center, radius).box_state(lo, hi) == 0, want)


def _corner_test(inside, lo, hi):
    """The containment test at all 2^dim corners of each box."""
    corners = box_corners(lo, hi)
    return np.all(inside(corners.reshape(-1, lo.shape[1])).reshape(corners.shape[:-1]), axis=1)


def _check_state(shape, inside, lo, hi):
    """The state is 2 exactly where every corner tests inside, and 0 only
    where no corner does."""
    want = _corner_test(inside, lo, hi)
    assert want.any() and not want.all()
    state = shape.box_state(lo, hi)
    assert np.array_equal(state == 2, want)
    some_inside = ~_corner_test(lambda pts: ~inside(pts), lo, hi)
    assert np.count_nonzero(state == 0) and not np.any((state == 0) & some_inside)


def _boxes_at_rim(rng, rim, center):
    """Boxes with one corner on a rim point, or 1 ulp off it in each
    coordinate, and the other toward the centre or past the rim; a third
    of them have zero width, some in one coordinate only; then random
    boxes around the centre."""
    step = np.where(rng.random(rim.shape) < 0.5, np.inf, -np.inf)
    p = np.concatenate([rim, np.nextafter(rim, step), np.nextafter(rim, -step)])
    t = rng.uniform(0.0, 1.2, p.shape)
    t[::3] = 1.0
    t[1::7, 0] = 1.0
    q = center + (p - center) * t
    spread = np.max(np.abs(rim - center))
    r_lo = center + rng.uniform(-1.5, 1.0, (2000, len(center))) * spread
    r_hi = r_lo + rng.uniform(0.0, 0.6, r_lo.shape) * spread
    return (np.concatenate([np.minimum(p, q), r_lo]),
            np.concatenate([np.maximum(p, q), r_hi]))


def _rim_of_ball(rng, center, radius, count=600):
    u = rng.normal(size=(count, len(center)))
    return center + radius * u / np.linalg.norm(u, axis=1, keepdims=True)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 9])
def test_ball_holds_box_equals_the_corner_test(dim):
    # The far corner stands for all corners: sums of squares round
    # monotonically, in index order (dim < 8) and pairwise (dim >= 8).
    rng = np.random.default_rng(10 + dim)
    center, radius = rng.uniform(-0.5, 0.5, dim), 0.9
    lo, hi = _boxes_at_rim(rng, _rim_of_ball(rng, center, radius), center)
    for shape, test in ((Ball(center, radius), "inside_mask"),
                        (Region.ball(center, radius), "contains")):
        _check_state(shape, getattr(shape, test), lo, hi)
    # On the unit ball the corner (1, 2^-26) lies at squared distance
    # 1 + 2^-52, whose rounded root is 1: the base ball, which tests the
    # root, holds the box [0.5, 1] x [0, 2^-26]; the region ball does not.
    lo, hi = np.zeros((1, dim)), np.zeros((1, dim))
    lo[0, 0], hi[0, 0], hi[0, 1] = 0.5, 1.0, 2.0 ** -26
    for shape, test, state in ((Ball(np.zeros(dim), 1.0), "inside_mask", 2),
                               (Region.ball(np.zeros(dim), 1.0), "contains", 1)):
        assert _corner_test(getattr(shape, test), lo, hi)[0] == (state == 2)
        assert shape.box_state(lo, hi).tolist() == [state]


def test_ellipse_and_polygon_hold_box_equals_the_corner_test():
    rng = np.random.default_rng(7)
    ellipse = Ellipse([0.2, -0.1], [1.3, 0.6])
    angle = rng.uniform(0.0, 2.0 * math.pi, 600)
    rim = ellipse.center + ellipse.semi_axes * np.column_stack([np.cos(angle), np.sin(angle)])
    hexagon = regular_polygon(6, inradius=0.8)
    verts, edge = hexagon.vertices, rng.integers(0, 6, 600)
    edges = verts[edge] + rng.random((600, 1)) * (np.roll(verts, -1, axis=0) - verts)[edge]
    for base, rim in ((ellipse, rim), (hexagon, np.concatenate([edges, verts]))):
        center = np.mean(rim, axis=0)
        lo, hi = _boxes_at_rim(rng, rim, center)
        _check_state(base, base.inside_mask, lo, hi)


def test_box_region_holds_box_equals_the_corner_test():
    rng = np.random.default_rng(8)
    box = Region.box([-0.5, 0.1, -1.0], [0.25, 0.7, 0.0])
    # Rim points on the faces and corners of the box, where lo or hi meet its bounds.
    rim = rng.uniform(box.lo, box.hi, (600, 3))
    face = rng.integers(0, 3, 600)
    rim[np.arange(600), face] = np.where(rng.random(600) < 0.5, box.lo[face], box.hi[face])
    rim = np.concatenate([rim, box_corners(box.lo, box.hi)])
    lo, hi = _boxes_at_rim(rng, rim, 0.5 * (box.lo + box.hi))
    _check_state(box, box.contains, lo, hi)
    # The state is 0 exactly where the row formula says the box misses.
    want = np.any((hi < box.lo) | (lo > box.hi), axis=-1)
    assert np.array_equal(box.box_state(lo, hi) == 0, want)


# leaf draws held for every walk of a seed --------------------------------------

@pytest.fixture
def cold_leaf_memo(monkeypatch):
    """An empty leaf-draw memo for one test; the process's memo, untouched,
    comes back after it."""
    import archarray.region as region_module

    memo = {}
    monkeypatch.setattr(region_module, "_LEAF_MEMO", memo)
    return memo


def _walk_windows():
    """Windows on the unit disc: one inside it (no leaves), one disjoint,
    one tangent from outside, and several straddling its edge with leaf
    counts below and above one draw block."""
    return [
        Region.box([-0.2, -0.2], [0.2, 0.2]),
        Region.box([5.0, 5.0], [6.0, 6.0]),
        Region.ball([1.5, 0.0], 0.5),
        Region.ball([0.6, 0.3], 0.5),
        Region.box([0.75, -0.3], [1.15, 0.1]),
        Region.ball([0.9, 0.0], 0.3),
        Region.box([-1.2, -1.2], [1.2, 1.2]),
        Region.ball([-0.8, 0.55], 0.08),
    ]


def _bits(out):
    """Volume, integral and error estimate as hex, and the walk's counters."""
    return ([v.hex() for v in (out.volume, out.integral, out.error_estimate)],
            (out.cells_accepted, out.cells_discarded, out.mc_leaves))


@pytest.fixture
def counting_generator(monkeypatch, cold_leaf_memo):
    """numpy's generator class, for walks on a cold memo, replaced by one
    that counts its constructions and its draws."""
    class Counting(np.random.Generator):
        made = draws = 0

        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            Counting.made += 1

        def random(self, *args, **kwargs):
            Counting.draws += 1
            return super().random(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    return Counting


@pytest.mark.parametrize("integrand", [None, _smooth], ids=["volume", "integral"])
def test_walks_sharing_leaf_draws_equal_walks_drawing_their_own(cold_leaf_memo, integrand):
    import archarray.region as region_module
    from archarray.region import _BLOCK

    base = Ball([0.0, 0.0], 1.0)

    def walk(u):
        return _bits(clipped_quadrature(base, u, integrand, depth=8, seed=3))

    cold = []
    for u in _walk_windows():
        cold_leaf_memo.clear()
        cold.append(walk(u))
    # Warm: each walk finds the draws of the walks before it, more leaves
    # than it needs or fewer.
    warm = [walk(u) for u in _walk_windows()]
    # Evicted: walks of another seed and of another dim push the key out first.
    evicted = []
    for u in _walk_windows():
        clipped_quadrature(base, Region.ball([0.9, 0.0], 0.3), depth=8, seed=4)
        clipped_quadrature(Ball(np.zeros(3), 1.0), Region.ball([0.9, 0.0, 0.0], 0.3),
                           depth=6, seed=3)
        assert len(cold_leaf_memo) == region_module._LEAF_MEMO_KEYS
        assert (3, 2, MC_POINTS) not in cold_leaf_memo
        evicted.append(walk(u))
    assert cold == warm == evicted
    leaves = sorted({counters[2] for _, counters in cold})
    assert leaves[0] == 0 and leaves[-1] > _BLOCK // MC_POINTS and len(leaves) >= 4


def test_shared_leaf_draws_draw_each_leaf_once(counting_generator, cold_leaf_memo):
    base = Ball([0.0, 0.0], 1.0)
    leaves = [clipped_quadrature(base, u, depth=8, seed=3).mc_leaves for u in _walk_windows()]
    assert counting_generator.draws == max(leaves) < sum(leaves)
    # Walks of the same seed again, with an integrand or at another depth,
    # draw no leaf they can read.
    for u in _walk_windows():
        clipped_quadrature(base, u, _smooth, depth=8, seed=3)
        clipped_quadrature(base, u, depth=7, seed=3)
    assert counting_generator.draws == max(leaves) and counting_generator.made == 1
    assert len(cold_leaf_memo[(3, 2, MC_POINTS)]._held) == max(leaves)


def test_leaf_draws_of_one_walk_serve_the_next(counting_generator, cold_leaf_memo):
    # The second pass over the windows reads the first pass's draws and
    # draws none of its own; both passes match walks on a cold memo.
    from archarray.array import make_archimedean
    from archarray.region import LeafDraws

    h = make_archimedean(4, 2)
    windows = (Region.ball([0.9, 0.0], 0.3), Region.box([0.75, -0.3], [1.15, 0.1]))
    first = [clipped_quadrature(h.base, window, depth=9) for window in windows]
    drawn = counting_generator.draws
    again = [clipped_quadrature(h.base, window, depth=9) for window in windows]
    assert counting_generator.draws == drawn
    for window, a, b in zip(windows, first, again):
        cold_leaf_memo.clear()
        alone = clipped_quadrature(h.base, window, depth=9)
        assert a.mc_leaves > 0 and a == b == alone
    held = cold_leaf_memo[(0, 2, MC_POINTS)]
    assert np.array_equal(held.leaves(3)[1:], LeafDraws(0, 2).leaves(3)[1:])


def test_leaf_draws_must_match_the_walk(monkeypatch, cold_leaf_memo):
    # A walk reads only the draws of its own (seed, dim, MC_POINTS).
    import archarray.region as region_module

    base, region = Ball([0.0, 0.0], 1.0), Region.ball([0.9, 0.0], 0.3)
    want = _bits(clipped_quadrature(base, region, depth=8, seed=3))
    for seed, dim in ((4, 2), (3, 3)):
        cold_leaf_memo.clear()
        clipped_quadrature(Ball(np.zeros(dim), 1.0), Region.ball([0.9] + [0.0] * (dim - 1), 0.3),
                           depth=8, seed=seed)
        assert list(cold_leaf_memo) == [(seed, dim, MC_POINTS)]
        assert _bits(clipped_quadrature(base, region, depth=8, seed=3)) == want
    cold_leaf_memo.clear()
    with monkeypatch.context() as patch:
        patch.setattr(region_module, "MC_POINTS", 128)
        fewer = _bits(clipped_quadrature(base, region, depth=8, seed=3))
    assert list(cold_leaf_memo) == [(3, 2, 128)] and fewer != want
    assert _bits(clipped_quadrature(base, region, depth=8, seed=3)) == want


def test_statistical_windows_share_one_set_of_leaf_draws(monkeypatch, counting_generator,
                                                         cold_leaf_memo):
    import archarray.region as region_module
    from archarray.array import make_archimedean
    from archarray.verify import _expected_fractions

    h = make_archimedean(4, 2)
    windows = _walk_windows()
    want = [u.clipped_volume(h.base) / h.base.volume() for u in _walk_windows()]
    cold_leaf_memo.clear()
    counting_generator.made = counting_generator.draws = 0
    walks = []
    walk = region_module.clipped_quadrature

    def recording(*args, **kwargs):
        walks.append(args[1])
        return walk(*args, **kwargs)

    monkeypatch.setattr(region_module, "clipped_quadrature", recording)
    got = _expected_fractions(h, windows)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    # One walk per window, all on one set of draws, each leaf drawn once;
    # a second gate walks none.
    assert walks == windows
    leaves = max(walk(h.base, u).mc_leaves for u in windows)
    assert counting_generator.made == 1 and counting_generator.draws == leaves > 0
    assert _expected_fractions(h, windows) == got and len(walks) == len(windows)

"""Base-domain geometry: distances, gradients, and medial axes.

Hand-computed oracles cover the square, rectangle, parallelogram,
triangle, regular polygons, and the ellipse; a brute-force grid
classifier cross-checks the polygon medial axis on randomized inputs,
and a 60-digit ``decimal`` solve checks ellipse distances and gradients.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from archarray import base as base_module
from archarray.base import (
    Ball,
    BaseDomain,
    ConvexPolygon,
    Ellipse,
    SingularRegionError,
    base_from_description,
    polygon_from_csv,
    regular_polygon,
)
from archarray.verify import interior_points
from testutil import nth_derivative


def square(half=1.0):
    return ConvexPolygon(
        [[-half, -half], [half, -half], [half, half], [-half, half]]
    )


def unit_square():
    return ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# Ball -----------------------------------------------------------------------


def test_ball_distances():
    b = Ball([1.0, 2.0], 3.0)
    assert b.distance_to_boundary([1.0, 2.0]) == pytest.approx(3.0)
    assert b.distance_to_boundary([3.0, 2.0]) == pytest.approx(1.0)
    assert b.signed_distance([5.0, 2.0]) == pytest.approx(-1.0)
    assert b.signed_distance([1.0, 2.0]) == pytest.approx(3.0)


def test_ball_contains():
    b = Ball([0.0, 0.0, 0.0], 1.0)
    assert b.contains([0.5, 0.0, 0.0])
    assert not b.contains([1.5, 0.0, 0.0])
    flags = b.contains(np.array([[0.0, 0.0, 0.9], [0.0, 0.0, 1.1]]))
    assert flags.tolist() == [True, False]


def test_ball_gradient_radial():
    b = Ball([0.0, 0.0], 2.0)
    g = b.omega_gradient([1.0, 0.0])
    assert np.allclose(g, [-1.0, 0.0])
    g = b.omega_gradient([0.6, 0.8])
    assert np.allclose(g, [-0.6, -0.8])
    assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)


def test_ball_center_is_singular():
    b = Ball([0.0, 0.0], 1.0)
    assert b.singular_set_distance([0.3, 0.4]) == pytest.approx(0.5)
    with pytest.raises(SingularRegionError):
        b.omega_gradient([1e-5, 0.0])


def test_ball_any_dimension():
    b = Ball([0.0] * 5, 2.0)
    assert b.dim == 5
    assert b.volume() == pytest.approx(
        8.0 * math.pi**2 / 15.0 * 2.0**5, rel=1e-12
    )
    assert b.inradius() == 2.0


def test_ball_boundary_radius():
    b = Ball([0.0, 0.0], 1.0)
    # From an off-center origin, the chord lengths follow the quadratic.
    assert b.boundary_radius([0.5, 0.0], 0.0) == pytest.approx(0.5)
    assert b.boundary_radius([0.5, 0.0], math.pi) == pytest.approx(1.5)
    th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    r = b.boundary_radius([0.2, -0.1], th)
    ends = np.array([0.2, -0.1]) + r[:, None] * np.stack(
        [np.cos(th), np.sin(th)], axis=1
    )
    assert np.allclose(np.linalg.norm(ends, axis=1), 1.0, atol=1e-12)


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], -1.0)


# square / rectangle hand values --------------------------------------------


def test_square_distance_values():
    sq = unit_square()
    assert sq.distance_to_boundary([0.3, 0.5]) == pytest.approx(0.3)
    assert sq.distance_to_boundary([0.5, 0.5]) == pytest.approx(0.5)
    assert sq.distance_to_boundary([0.5, 0.02]) == pytest.approx(0.02)


def test_square_gradient_hand_values():
    sq = unit_square()
    assert np.allclose(sq.omega_gradient([0.5, 0.1]), [0.0, 1.0])
    assert np.allclose(sq.omega_gradient([0.1, 0.5]), [1.0, 0.0])
    assert np.allclose(sq.omega_gradient([0.9, 0.5]), [-1.0, 0.0])


def test_square_signed_distance_outside():
    sq = square(1.0)
    assert sq.signed_distance([2.0, 0.0]) == pytest.approx(-1.0)
    # Outside past a corner the distance goes to the corner point.
    assert sq.signed_distance([2.0, 2.0]) == pytest.approx(-math.sqrt(2.0))
    assert sq.signed_distance([0.0, 0.0]) == pytest.approx(1.0)


def test_square_skeleton_is_diagonals():
    sq = square(1.0)
    assert sq.inradius() == pytest.approx(1.0, abs=1e-12)
    assert sq.singular_set_distance([0.9, 0.0]) == pytest.approx(
        0.9 / math.sqrt(2.0), abs=1e-12
    )
    assert sq.singular_set_distance([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    # Every diagonal midpoint lies on the skeleton.
    for p in ([0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]):
        assert sq.singular_set_distance(p) == pytest.approx(0.0, abs=1e-12)


def test_rectangle_skeleton_ridge():
    rect = ConvexPolygon([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]])
    assert rect.inradius() == pytest.approx(1.0, abs=1e-12)
    # Ridge points along y = 1 between x = 1 and x = 3.
    for x in (1.0, 1.7, 2.5, 3.0):
        assert rect.singular_set_distance([x, 1.0]) == pytest.approx(0.0, abs=1e-12)
    # Off-ridge interior points: nearest feature is the ridge for the
    # first, the diagonal corner branch y = x for the second.
    assert rect.singular_set_distance([2.0, 0.5]) == pytest.approx(0.5, abs=1e-12)
    assert rect.singular_set_distance([0.2, 1.0]) == pytest.approx(
        0.4 * math.sqrt(2.0), abs=1e-12
    )
    assert rect.distance_to_boundary([2.0, 1.0]) == pytest.approx(1.0)


PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _rotated(points, shift=(0.5, -0.3)):
    """Points turned by 30 degrees about the origin, then shifted."""
    c, s = math.cos(math.pi / 6.0), math.sin(math.pi / 6.0)
    return np.asarray(points, dtype=float) @ np.array([[c, s], [-s, c]]) + shift


def test_parallelogram_medial_segment():
    # Two parallel edges 2 apart, turned and shifted: inradius 1 and a
    # medial segment on the mid-line y = 1 from x = phi to 5 - phi, since
    # the acute corner has cot(alpha / 2) = (1 + cos alpha) / sin alpha = phi.
    # The rectangle's ridge is tested above.
    poly = ConvexPolygon(_rotated([[0.0, 0.0], [4.0, 0.0], [5.0, 2.0], [1.0, 2.0]]))
    assert poly.inradius() == pytest.approx(1.0, abs=1e-12)
    on = _rotated([[PHI, 1.0], [2.5, 1.0], [5.0 - PHI, 1.0]])
    assert np.allclose(poly.singular_set_distance(on), 0.0, atol=1e-12)
    assert np.allclose(poly.distance_to_boundary(on), 1.0, atol=1e-12)
    off = _rotated([[2.5, 0.4], [2.5, 1.5]])
    assert np.allclose(poly.singular_set_distance(off), [0.6, 0.5], atol=1e-12)
    assert np.allclose(poly.distance_to_boundary(off), [0.4, 0.5], atol=1e-12)
    # Off the mid-line the gradient is the nearer long edge's inward normal.
    normals = _rotated([[0.0, 1.0], [0.0, -1.0]], shift=(0.0, 0.0))
    assert np.allclose(poly.omega_gradient(off), normals, atol=1e-12)


def test_triangle_incenter():
    # 3-4-5 right triangle: inradius = (3 + 4 - 5)/2 = 1, incenter (1, 1).
    tri = ConvexPolygon([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    assert tri.inradius() == pytest.approx(1.0, abs=1e-12)
    assert tri.distance_to_boundary([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert tri.singular_set_distance([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert tri.volume() == pytest.approx(6.0)


def test_regular_polygon_constructors():
    hexa = regular_polygon(6, inradius=2.0)
    assert hexa.inradius() == pytest.approx(2.0, abs=1e-12)
    assert hexa.vertices.shape == (6, 2)
    hexa2 = regular_polygon(6, circumradius=1.0)
    assert hexa2.inradius() == pytest.approx(math.cos(math.pi / 6.0), abs=1e-12)
    # Area of a regular n-gon with circumradius R: (n/2) R^2 sin(2 pi/n).
    assert hexa2.volume() == pytest.approx(3.0 * math.sin(math.pi / 3.0), rel=1e-12)
    with pytest.raises(ValueError):
        regular_polygon(6)
    with pytest.raises(ValueError):
        regular_polygon(6, inradius=1.0, circumradius=1.0)


def test_hexagon_skeleton_spokes():
    hexa = regular_polygon(6, circumradius=1.0)
    # Spokes run from each vertex to the center.
    assert hexa.singular_set_distance([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    v = hexa.vertices[2]
    assert hexa.singular_set_distance(0.5 * v) == pytest.approx(0.0, abs=1e-12)
    seg = hexa.medial_axis()
    assert seg.shape[1:] == (2, 2)


def test_elongated_hexagon_fishbone():
    # Two long parallel horizontal edges: the skeleton has a straight
    # ridge along y = 0 plus four corner branches.
    verts = [
        [-3.0, -1.0], [3.0, -1.0], [4.0, 0.0],
        [3.0, 1.0], [-3.0, 1.0], [-4.0, 0.0],
    ]
    poly = ConvexPolygon(verts)
    assert poly.inradius() == pytest.approx(1.0, abs=1e-12)
    for x in (-2.0, 0.0, 1.5, 2.0):
        assert poly.singular_set_distance([x, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert poly.singular_set_distance([0.0, 0.6]) == pytest.approx(0.6, abs=1e-12)


def test_many_sided_polygon_close_to_disk():
    poly = regular_polygon(64, circumradius=1.0)
    apothem = math.cos(math.pi / 64.0)
    assert poly.inradius() == pytest.approx(apothem, abs=1e-12)
    assert poly.distance_to_boundary([0.0, 0.0]) == pytest.approx(apothem, abs=1e-12)
    assert poly.volume() == pytest.approx(32.0 * math.sin(math.pi / 32.0), rel=1e-12)


def test_polygon_boundary_radius():
    sq = square(1.0)
    assert sq.boundary_radius([0.0, 0.0], 0.0) == pytest.approx(1.0)
    assert sq.boundary_radius([0.0, 0.0], math.pi / 4.0) == pytest.approx(
        math.sqrt(2.0)
    )
    th = np.linspace(0.0, 2.0 * math.pi, 31, endpoint=False)
    r = sq.boundary_radius([0.3, -0.2], th)
    pts = np.array([0.3, -0.2]) + r[:, None] * np.stack(
        [np.cos(th), np.sin(th)], axis=1
    )
    # Every ray end lands on the boundary.
    assert np.max(np.abs(sq.signed_distance(pts))) < 1e-12


# eikonal property -----------------------------------------------------------


@pytest.mark.parametrize(
    "base",
    [
        Ball([0.5, -0.2], 1.7),
        regular_polygon(5, circumradius=1.3),
        Ellipse([0.0, 0.0], [2.0, 1.0]),
        ConvexPolygon([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]]),
    ],
    ids=["ball", "pentagon", "ellipse", "rectangle"],
)
def test_gradient_is_unit_and_matches_fd(base):
    rng = np.random.default_rng(42)
    lo, hi = base.bounding_box()
    picked = 0
    while picked < 25:
        p = rng.uniform(lo, hi)
        if not base.contains(p):
            continue
        if base.distance_to_boundary(p) < 0.05 * base.inradius():
            continue
        if base.singular_set_distance(p) < 3.0 * base.singular_band:
            continue
        picked += 1
        g = base.omega_gradient(p)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-9)
        h = 1e-6 * base.inradius()
        fd = np.array(
            [
                (
                    base.signed_distance(p + h * e)
                    - base.signed_distance(p - h * e)
                )
                / (2.0 * h)
                for e in np.eye(2)
            ]
        )
        assert np.allclose(g, fd, atol=1e-6)


# quadrature contract ---------------------------------------------------------


CONTRACT_BASES = [
    Ball([0.5, -0.2], 1.7),
    Ball([0.1, 0.2, -0.3], 0.8),
    Ellipse([0.3, -0.1], [2.0, 0.7]),
    regular_polygon(5, circumradius=1.3),
    ConvexPolygon([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]]),
]
CONTRACT_IDS = ["ball2", "ball3", "ellipse", "pentagon", "rectangle"]


def _padded_uniform(base, rng, count):
    lo, hi = base.bounding_box()
    pad = 0.25 * (hi - lo)
    return rng.uniform(lo - pad, hi + pad, size=(count, base.dim))


@pytest.mark.parametrize("base", CONTRACT_BASES, ids=CONTRACT_IDS)
def test_inside_mask_matches_signed_distance(base):
    pts = _padded_uniform(base, np.random.default_rng(17), 4000)
    sd = base.signed_distance(pts)
    clear = np.abs(sd) > 1e-9
    mask = base.inside_mask(pts)
    assert mask.dtype == bool and mask.shape == (len(pts),)
    assert np.array_equal(mask[clear], sd[clear] >= 0.0)
    assert 0 < np.count_nonzero(mask) < len(pts)


@pytest.mark.parametrize("base", CONTRACT_BASES, ids=CONTRACT_IDS)
def test_misses_box_never_drops_an_inside_point(base):
    # A box's state is 0 (missed) only if no point of the domain lies in it.
    rng = np.random.default_rng(23)
    pts = _padded_uniform(base, rng, 4000)
    inside = pts[base.signed_distance(pts) > 0.0][:300]
    lo, hi = base.bounding_box()
    size = hi - lo
    boxes = []
    for p in inside:
        below = rng.uniform(0.0, 0.5, base.dim) * size
        above = rng.uniform(0.0, 0.5, base.dim) * size
        assert base.box_state(p - below, p + above) != 0
        boxes.append((p - below, p + above))
    # The test is not vacuous: a box clear of the bounding box is missed.
    assert base.box_state(hi + 0.1 * size, hi + 0.3 * size) == 0
    # Asked as one batch, the boxes get the answers they got one by one,
    # and so do small boxes around all points, some of which are missed.
    blo, bhi = (np.array(side) for side in zip(*boxes))
    assert not np.any(base.box_state(blo, bhi) == 0)
    blo = pts - rng.uniform(0.0, 0.05, pts.shape) * size
    bhi = pts + rng.uniform(0.0, 0.05, pts.shape) * size
    batch = base.box_state(blo, bhi)
    assert batch.shape == (len(pts),) and 0 < np.count_nonzero(batch == 0)
    assert batch.tolist() == [int(base.box_state(a, b)) for a, b in zip(blo, bhi)]
    # The default test knows no box to miss, and holds the same boxes.
    default = BaseDomain.box_state(base, blo, bhi)
    assert default.shape == (len(pts),) and np.all(default >= 1)
    assert np.array_equal(default == 2, batch == 2)


def test_omega_equals_signed_inside():
    base = regular_polygon(7, circumradius=2.0)
    rng = np.random.default_rng(3)
    lo, hi = base.bounding_box()
    pts = rng.uniform(lo, hi, size=(500, 2))
    inside = base.contains(pts)
    w = base.distance_to_boundary(pts[inside])
    s = base.signed_distance(pts[inside])
    assert np.allclose(w, s, atol=1e-12)


# ellipse --------------------------------------------------------------------


def test_ellipse_axis_distances():
    e = Ellipse([0.0, 0.0], [2.0, 1.0])
    assert e.distance_to_boundary([0.0, 0.0]) == pytest.approx(1.0, abs=1e-10)
    # On the minor axis the nearest boundary point is the co-vertex.
    assert e.distance_to_boundary([0.0, 0.5]) == pytest.approx(0.5, abs=1e-10)
    # At the end of the medial segment, curvature center of the vertex.
    assert e.signed_distance([2.5, 0.0]) == pytest.approx(-0.5, abs=1e-10)


def test_ellipse_nearest_point_accuracy():
    a, b = 2.0, 1.0
    e = Ellipse([0.0, 0.0], [a, b])
    # Oracle: for boundary point (a cos t, b sin t), the inward normal
    # hits (a cos t - d n_x, ...); walking distance d inward must give
    # back distance d.
    for t in (0.2, 0.7, 1.1, 1.5):
        bx, by = a * math.cos(t), b * math.sin(t)
        n = np.array([b * math.cos(t), a * math.sin(t)])
        n /= np.linalg.norm(n)
        for d in (0.05, 0.2):
            p = np.array([bx, by]) - d * n
            assert e.distance_to_boundary(p) == pytest.approx(d, abs=1e-9)


def test_ellipse_newton_cap_warns_with_the_unconverged_count(monkeypatch):
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (40, 2))
    monkeypatch.setattr(Ellipse, "_NEWTON_CAP", 1)
    with pytest.warns(RuntimeWarning, match=r"left 40 of 40 points unconverged after 1 "):
        Ellipse([0.0, 0.0], [2.0, 1.0]).signed_distance(pts)


def test_ellipse_distance_does_not_depend_on_its_batch():
    e = Ellipse([0.1, -0.2], [0.9, 0.5])
    pts = np.random.default_rng(3).uniform(-1.2, 1.2, (2000, 2))
    whole = e.signed_distance(pts)[:400]
    alone = np.array([e.signed_distance(p[None])[0] for p in pts[:400]])
    assert np.count_nonzero(whole != alone) == 0


def _ellipse_reference(e, pts):
    """Signed distances and inward unit normals at the nearest boundary
    points of ``pts``, in 60-digit arithmetic on the exact (decimal)
    offsets of the points.  Off the long axis the root u of
    F(u) = (a x / (u + c))^2 + (b y / u)^2 - 1 is bisected, in log u while
    the bracket spans more than a factor 2 and then in u, from
    [max(b y, a x - c), |(a x, b y)|], where F >= 0 and F <= 0, to a
    relative width of 1e-50.  Fails unless the bisection closes and the
    nearest point q is on the ellipse, with p - q along its normal, to
    1e-40."""
    sd, normals = [], []
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = (Decimal(float(v)) for v in e.semi_axes)
        swap = b > a
        if swap:
            a, b = b, a
        c = a * a - b * b
        for p in pts:
            rx, ry = (Decimal(float(v)) - Decimal(float(w)) for v, w in zip(p, e.center))
            if swap:
                rx, ry = ry, rx
            x, y = abs(rx), abs(ry)
            if y == 0:
                qx = a * a * x / c if a * x < c else a
                qy = b * (1 - (qx / a) ** 2).sqrt()
            else:
                lo, hi = max(b * y, a * x - c), (a * a * x * x + b * b * y * y).sqrt()
                for _ in range(400):
                    if hi - lo <= Decimal("1e-50") * hi:
                        break
                    u = (lo * hi).sqrt() if hi > 2 * lo else (lo + hi) / 2
                    # F, with p^2 - 1 written so that it keeps its digits.
                    pp = a * x / (u + c)
                    f = (b * y / u) ** 2 + (pp + 1) * (a * x - c - u) / (u + c)
                    lo, hi = (u, hi) if f >= 0 else (lo, u)
                else:
                    raise AssertionError(f"reference bisection did not close at {p}")
                u = (lo + hi) / 2
                qx, qy = a * a * x / (u + c), b * b * y / u
            nx, ny = qx / (a * a), qy / (b * b)
            norm = (nx * nx + ny * ny).sqrt()
            assert abs(nx * qx + ny * qy - 1) <= Decimal("1e-40")
            assert abs((x - qx) * ny - (y - qy) * nx) / norm <= Decimal("1e-40")
            dist = ((x - qx) ** 2 + (y - qy) ** 2).sqrt()
            sd.append(dist if (x / a) ** 2 + (y / b) ** 2 <= 1 else -dist)
            gx, gy = (nx / norm).copy_sign(-rx), (ny / norm).copy_sign(-ry)
            normals.append((gy, gx) if swap else (gx, gy))
    return sd, normals


def _max_error(values, reference):
    return max(abs(Decimal(v) - r) for v, r in zip(np.ravel(values).tolist(),
                                                    np.ravel(reference)))


REFERENCE_ELLIPSES = {
    "wide": Ellipse([0.0, 0.0], [1.0, 0.6]),
    "small": Ellipse([0.1, -0.2], [0.35, 0.245]),
    "long": Ellipse([0.3, -0.1], [2.0, 0.7]),
    "tall": Ellipse([-0.2, 0.4], [0.5, 1.3]),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_ELLIPSES))
def test_ellipse_distance_matches_a_60_digit_reference(name):
    e = REFERENCE_ELLIPSES[name]
    c, s = e.center, e.semi_axes
    rng = np.random.default_rng(11)
    box = rng.uniform(c - 1.2 * s, c + 1.2 * s, (400, 2))
    t = rng.uniform(0.0, 2.0 * math.pi, 300)
    rim = c + (1.0 + rng.uniform(-1e-4, 1e-4, 300))[:, None] * s * np.stack(
        [np.cos(t), np.sin(t)], axis=1)
    # Within 1e-6 of the long axis, inside and beyond the medial segment.
    long = int(s[1] > s[0])
    axis = np.empty((300, 2))
    axis[:, long] = c[long] + rng.uniform(-1.2, 1.2, 300) * s[long]
    axis[:, 1 - long] = c[1 - long] + rng.uniform(-1e-6, 1e-6, 300) * s[long]
    pts = np.concatenate([box, rim, axis])
    sd, _ = _ellipse_reference(e, pts)
    assert _max_error(e.signed_distance(pts), sd) <= 4.4e-16


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["wide", "circle"])
def test_ellipse_distance_on_and_next_to_the_long_axis(name):
    # Offsets down to subnormal ones, at the centre, inside the medial
    # segment, at its end x = c / a = 0.64 of the wide ellipse (where
    # 1 - 0.6^2 == 0.64 in floats, and the root u is cube-root small),
    # beyond it and outside; the circle has c = 0.
    e = REFERENCE_ELLIPSES["wide"] if name == "wide" else Ellipse([0.0, 0.0], [1.0, 1.0])
    pts = np.array([(x, sy * y) for x in (0.0, -0.3, 0.64, 0.9, 1.5)
                    for y in (0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-60, 1e-16, 1e-15)
                    for sy in (1.0, -1.0)])
    sd, _ = _ellipse_reference(e, pts)
    assert _max_error(e.signed_distance(pts), sd) <= 4.4e-16


def test_ellipse_gradient_at_the_end_of_the_medial_segment(monkeypatch):
    # 1 - 0.75^2 = 0.4375 is exact in floats, so (0.4375, y) is at the end
    # of the medial segment exactly (unlike 0.64 above, which ends 2.7e-17
    # further out in exact arithmetic); there the root u is cube-root small.
    monkeypatch.setattr(base_module, "SINGULAR_BAND_FRACTION", 0.0)
    e = Ellipse([0.0, 0.0], [1.0, 0.75])
    pts = np.array([(x, sy * y) for x in (0.4375, 0.9)
                    for y in (5e-324, 1e-300, 1e-200, 1e-60, 1e-16)
                    for sy in (1.0, -1.0)])
    _, normals = _ellipse_reference(e, pts)
    assert _max_error(e.omega_gradient(pts), normals) <= 1e-14


@pytest.mark.parametrize("semi_axes", [(0.35, 0.245), (0.5, 0.35), (0.5, 1.3)])
def test_ellipse_gradient_matches_a_60_digit_reference(semi_axes):
    # Points within 1e-6 inradius of the boundary, as the golden gradient
    # pins use, where p - q would lose its leading digits.
    e = Ellipse([0.1, -0.2], semi_axes)
    pts = interior_points(e, 1000, boundary_offset=1e-6 * e.inradius())
    _, normals = _ellipse_reference(e, pts)
    assert _max_error(e.omega_gradient(pts), normals) <= 1e-14


def test_ellipse_medial_segment():
    a, b = 2.0, 1.0
    e = Ellipse([0.0, 0.0], [a, b])
    half = (a * a - b * b) / a  # 1.5
    assert e.singular_set_distance([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert e.singular_set_distance([half, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert e.singular_set_distance([half + 0.2, 0.0]) == pytest.approx(
        0.2, abs=1e-12
    )
    assert e.singular_set_distance([0.0, 0.4]) == pytest.approx(0.4, abs=1e-12)


def test_ellipse_gradient_on_axes():
    e = Ellipse([1.0, -1.0], [2.0, 1.0])
    g = e.omega_gradient([1.0, -0.4])
    assert np.allclose(g, [0.0, -1.0], atol=1e-9)


def test_tall_ellipse_medial_vertical():
    e = Ellipse([0.0, 0.0], [1.0, 2.0])
    assert e.inradius() == 1.0
    assert e.singular_set_distance([0.0, 1.5]) == pytest.approx(0.0, abs=1e-12)
    assert e.singular_set_distance([0.4, 0.0]) == pytest.approx(0.4, abs=1e-12)


def test_circle_as_ellipse_matches_ball():
    e = Ellipse([0.0, 0.0], [1.5, 1.5])
    b = Ball([0.0, 0.0], 1.5)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.4, 1.4, size=(100, 2))
    pts = pts[np.linalg.norm(pts, axis=1) < 1.4]
    assert np.allclose(
        e.signed_distance(pts), b.signed_distance(pts), atol=1e-9
    )


def test_ellipse_boundary_radius():
    e = Ellipse([0.0, 0.0], [2.0, 1.0])
    th = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    r = e.boundary_radius([0.3, 0.2], th)
    pts = np.array([0.3, 0.2]) + r[:, None] * np.stack(
        [np.cos(th), np.sin(th)], axis=1
    )
    level = (pts[:, 0] / 2.0) ** 2 + pts[:, 1] ** 2
    assert np.allclose(level, 1.0, atol=1e-12)


def test_ellipse_validation():
    with pytest.raises(ValueError):
        Ellipse([0.0, 0.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        Ellipse([0.0], [1.0, 1.0])


# randomized polygon medial axis vs brute force ------------------------------


def random_convex_polygon(rng, n_verts):
    """Strictly convex polygon from sorted angles on a noisy circle."""
    for _ in range(200):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_verts))
        if np.min(np.diff(np.concatenate([angles, angles[:1] + 2.0 * math.pi]))) < 0.25:
            continue
        radii = rng.uniform(0.7, 1.3, n_verts)
        verts = np.stack(
            [radii * np.cos(angles), radii * np.sin(angles)], axis=1
        )
        try:
            return ConvexPolygon(verts)
        except ValueError:
            continue
    raise RuntimeError("could not draw a valid polygon")


def medial_grid_oracle(poly, h):
    """Grid points whose two smallest edge margins meet within 0.75h.

    The margin gap is normalized by the angle between the two competing
    edge normals: where normals are nearly parallel, equality of margins
    is a badly conditioned medial criterion and the band would otherwise
    flare out.
    """
    lo, hi = poly.bounding_box()
    xs = np.arange(lo[0], hi[0] + h, h)
    ys = np.arange(lo[1], hi[1] + h, h)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = poly.contains(pts)
    pts = pts[inside]
    margins = pts @ poly._normals.T - poly._offsets[None, :]
    order = np.argsort(margins, axis=1)
    e0 = order[:, 0]
    e1 = order[:, 1]
    gap = margins[np.arange(len(pts)), e1] - margins[np.arange(len(pts)), e0]
    nsep = np.linalg.norm(poly._normals[e1] - poly._normals[e0], axis=1)
    near = gap / np.maximum(nsep, 1e-300) < 0.75 * h
    # Only label points safely interior so boundary clipping of the
    # skeleton does not matter.
    deep = poly.distance_to_boundary(pts) > 2.0 * h
    return pts[near & deep]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_skeleton_matches_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    poly = random_convex_polygon(rng, int(rng.integers(4, 9)))
    h = 0.02 * poly.inradius()
    labeled = medial_grid_oracle(poly, h)
    assert len(labeled) > 10
    dist = poly.singular_set_distance(labeled)
    assert np.max(dist) < 1.5 * h


@pytest.mark.parametrize("sides", [3, 4, 5, 6, 8, 12])
def test_skeleton_inradius_matches_omega_maximum(sides):
    poly = regular_polygon(sides, circumradius=1.0)
    # For a regular polygon the deepest point is the center.
    assert poly.inradius() == pytest.approx(
        poly.distance_to_boundary([0.0, 0.0]), abs=1e-12
    )


def test_generic_polygon_skeleton_is_a_tree_with_2n_minus_3_segments():
    # Without coinciding events the skeleton of a convex n-gon is a tree
    # with the n vertices as leaves and n - 2 nodes of degree 3: one per
    # edge collapse and the incentre.
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 20))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        semi = rng.uniform(0.3, 2.0, 2)
        verts = semi * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        try:
            poly = ConvexPolygon(verts + rng.uniform(-1.0, 1.0, 2))
        except ValueError:
            continue
        checked += 1
        seg = poly.medial_axis()
        assert len(seg) == 2 * n - 3
        _, degree = np.unique(seg.reshape(-1, 2), axis=0, return_counts=True)
        assert sorted(degree) == [1] * n + [3] * (n - 2)


def test_regular_polygon_inradius_is_the_centre_margin():
    # The centre's smallest edge margin is the apothem; the incentre of
    # the last three edge lines matches it within 128 eps for n = 3..64.
    for sides in range(3, 65):
        poly = regular_polygon(sides, circumradius=1.0)
        margin = float(np.min(-poly._offsets))
        assert abs(poly.inradius() - margin) <= 128 * np.finfo(float).eps * margin, sides


# error paths ----------------------------------------------------------------


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):  # clockwise
        ConvexPolygon([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):  # collinear run
        ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):  # reflex vertex
        ConvexPolygon([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [2.0, 2.0], [0.0, 2.0]])
    with pytest.raises(ValueError):  # too many vertices
        regular_polygon(65, circumradius=1.0)


def test_outside_point_rejected_for_interior_queries():
    sq = square(1.0)
    with pytest.raises(ValueError):
        sq.distance_to_boundary([2.0, 0.0])
    with pytest.raises(ValueError):
        sq.omega_gradient([2.0, 0.0])


def test_singular_band_blocks_gradient():
    sq = square(1.0)
    with pytest.raises(SingularRegionError):
        sq.omega_gradient([0.0, 0.0])
    # Just outside the default band everything works.
    p = [0.5, 0.0]
    assert np.allclose(sq.omega_gradient(p), [1.0, 0.0]) or np.allclose(
        sq.omega_gradient(p), [-1.0, 0.0]
    )


def test_gradient_on_boundary_rejected():
    b = Ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        b.omega_gradient([1.0, 0.0])


def test_point_shape_validation():
    b = Ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        b.contains([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        b.signed_distance(np.zeros((4, 3)))


# serialization / file loading -----------------------------------------------


def test_describe_round_trip():
    bases = [
        Ball([0.1, -0.4], 2.0),
        Ellipse([1.0, 1.0], [3.0, 1.5]),
        regular_polygon(5, circumradius=1.1),
    ]
    for base in bases:
        clone = base_from_description(base.describe())
        assert type(clone) is type(base)
        pts = np.array([[0.1, 0.2], [-0.3, 0.8]]) + getattr(
            base, "center", np.zeros(2)
        )
        assert np.allclose(
            clone.signed_distance(pts), base.signed_distance(pts), atol=1e-14
        )


def test_base_from_description_unknown():
    with pytest.raises(ValueError):
        base_from_description({"shape": "torus"})


def test_polygon_from_csv(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("0,0\n4,0\n0,3\n")
    poly = polygon_from_csv(path)
    assert poly.volume() == pytest.approx(6.0)


def test_polygon_from_csv_with_header(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("x,y\n0,0\n4,0\n0,3\n")
    poly = polygon_from_csv(path)
    assert poly.inradius() == pytest.approx(1.0, abs=1e-12)


def test_polygon_from_csv_rejects_bad_data(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n1,0\n")
    with pytest.raises(ValueError):
        polygon_from_csv(path)

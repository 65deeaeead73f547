"""Warped-product arrays: warp evaluation, residuals, areas, volumes.

Oracles: for k = 2 the warp over a unit ball base is the round unit
sphere, so every evaluation has an elementary closed form; band areas
follow the equal-area correspondence (2*pi*height in R^3); hexagon-base
integrals use the coarea formula over shrunken-hexagon level sets; the
equizonal closed forms were frozen from a 40-digit evaluation and are
cross-checked against the factorized area formula.
"""

import json
import math
import sys

import numpy as np
import pytest

import archarray.array
import archarray.base
import archarray.verify
from archarray.array import (
    ArchimedeanWarp,
    CustomWarp,
    CylinderWarp,
    SphericalArray,
    array_from_json,
    equizonal_enclosed_volume,
    equizonal_total_volume,
    make_archimedean,
)
from archarray.base import Ball, Ellipse, SingularRegionError, regular_polygon
from archarray.region import Region
from archarray.scaling import make_scaling
from archarray.special import ball_volume, sphere_area
from archarray.verify import interior_points, sample_surface
from testutil import nth_derivative

# Frozen 40-digit evaluations of the closed-form areas and volumes of
# the codimension n-1 arrays (surfaces of revolution over an interval).
EQUIZONAL_TOTAL = {
    3: 12.566370614359173,
    4: 15.056274237662748,
    5: 17.022498594583128,
    6: 17.76468123937721,
}
EQUIZONAL_ENCLOSED = {
    3: 4.188790204786391,
    4: 3.2898681336964529,
    5: 2.7677965355697692,
    6: 2.3003262913556538,
}


def ball_points(rng, dim, radius, count, *, shrink=1e-5):
    """Quasi-uniform interior points of a centered ball."""
    u = rng.standard_normal((count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * (1.0 - shrink) * rng.random(count) ** (1.0 / dim)
    return u * r[:, None]


def unit_vectors(rng, dim, count):
    u = rng.standard_normal((count, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def surface_points(arr, rng, count):
    """Points (x'', f(x'') * u) straddling the whole surface."""
    base = ball_points(rng, arr.base_dim, arr.base.radius, count)
    f = np.atleast_1d(arr.warping(base))
    u = unit_vectors(rng, arr.k, count)
    return np.hstack([base, f[:, None] * u])


# Construction ---------------------------------------------------------------


def test_make_archimedean_shape():
    arr = make_archimedean(3, 2)
    assert arr.n == 3 and arr.k == 2 and arr.base_dim == 1
    assert arr.warp_mode == "archimedean"
    assert isinstance(arr.base, Ball)
    assert arr.base.radius == pytest.approx(1.0, abs=1e-12)
    assert arr.r_scale == 1.0


def test_make_archimedean_scaled_base():
    arr = make_archimedean(5, 3, r_scale=2.0)
    assert arr.base_dim == 2
    assert arr.base.radius == pytest.approx(2.0 * arr.scaling.m_k, rel=1e-14)


@pytest.mark.parametrize(
    "args",
    [(2, 2), (3, 1), (3, 3), (5, 5), (4, 0)],
)
def test_make_archimedean_rejects_bad_dimensions(args):
    with pytest.raises(ValueError):
        make_archimedean(*args)


def test_make_archimedean_rejects_bad_scale():
    with pytest.raises(ValueError):
        make_archimedean(3, 2, r_scale=0.0)
    with pytest.raises(ValueError):
        make_archimedean(3, 2, r_scale=-1.0)


def test_make_cylinder_shape():
    arr = SphericalArray(Ball(np.zeros(2), 0.7), CylinderWarp(2))
    assert arr.n == 4 and arr.k == 2
    assert arr.warp_mode == "cylinder"
    assert arr.scaling is None


def test_constructor_validation():
    base1 = Ball(np.zeros(1), 1.0)
    arr = SphericalArray(base1, ArchimedeanWarp(2))
    assert (arr.n, arr.k, arr.base_dim, arr.r_scale) == (3, 2, 1, 1.0)
    assert arr.scaling is make_scaling(2)
    with pytest.raises(ValueError):  # base too large for the warp domain
        SphericalArray(Ball(np.zeros(1), 2.0), ArchimedeanWarp(2))
    with pytest.raises(ValueError):  # custom without warp callable
        CustomWarp(2, None)
    with pytest.raises(ValueError):  # custom gradient that is not callable
        CustomWarp(2, lambda pts: np.full(len(pts), 0.5), warp_gradient=0.0)
    for warp in (ArchimedeanWarp, CylinderWarp):
        with pytest.raises(ValueError, match="at least 2"):
            warp(1)
        with pytest.raises(ValueError, match="r_scale must be positive"):
            warp(2, r_scale=0.0)
    with pytest.raises(TypeError):
        SphericalArray([[0.0], [1.0]], ArchimedeanWarp(2))


def test_warp_mode_is_read_only():
    arr = make_archimedean(3, 2)
    with pytest.raises(AttributeError):
        arr.warp_mode = "cylinder"


def test_archimedean_accepts_smaller_convex_base():
    hexagon = regular_polygon(6, inradius=0.8)
    scal = make_scaling(2)
    arr = SphericalArray(hexagon, ArchimedeanWarp(2))
    assert arr.warp_mode == "archimedean"
    assert arr.n == 4 and arr.scaling is scal
    with pytest.raises(ValueError):
        SphericalArray(regular_polygon(6, inradius=1.2), ArchimedeanWarp(2))


def test_split_point_orders_base_first():
    arr = make_archimedean(5, 3)
    xb, xf, single = arr.split_point([0.1, 0.2, 0.3, 0.4, 0.5])
    assert single
    assert np.allclose(xb, [[0.1, 0.2]])
    assert np.allclose(xf, [[0.3, 0.4, 0.5]])
    xb, xf, single = arr.split_point(np.zeros((7, 5)))
    assert not single and xb.shape == (7, 2) and xf.shape == (7, 3)
    with pytest.raises(ValueError):
        arr.split_point([0.0, 0.0, 0.0])


# Warp evaluation ------------------------------------------------------------


def test_k2_warp_is_circle_profile():
    # For k = 2 the scaling profile is a quarter circle, so the warp
    # over the unit interval base equals sqrt(1 - x^2).
    arr = make_archimedean(3, 2)
    xs = np.linspace(-0.999, 0.999, 211)
    f = arr.warping(xs[:, None])
    assert np.max(np.abs(f - np.sqrt(1.0 - xs**2))) < 1e-9


def test_warp_vanishes_on_base_boundary():
    # The base radius m_k carries an ulp of rounding; the warp behaves
    # like sqrt(2*omega) near the boundary, so that ulp is amplified to
    # the 1e-8 scale at the exact boundary point.
    arr = make_archimedean(3, 2)
    assert abs(arr.warping([1.0])) < 1e-7
    assert abs(arr.warping([-1.0])) < 1e-7
    # On the base's own boundary omega is exactly 0, and so is the warp.
    assert arr.warping([arr.base.radius]) == 0.0
    ball = make_archimedean(5, 2, r_scale=1.3)
    assert ball.warping([0.0, -ball.base.radius, 0.0]) == 0.0


def test_warp_single_point_returns_float():
    arr = make_archimedean(3, 2)
    out = arr.warping([0.6])
    assert isinstance(out, float)
    assert out == pytest.approx(0.8, rel=1e-9)


def test_warp_rejects_points_outside_base():
    arr = make_archimedean(3, 2)
    with pytest.raises(ValueError):
        arr.warping([1.1])
    arr2 = make_archimedean(4, 2)
    with pytest.raises(ValueError):
        arr2.warping([[0.9, 0.9]])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_k2_array_is_round_unit_sphere(n):
    arr = make_archimedean(n, 2)
    rng = np.random.default_rng(61 + n)
    pts = surface_points(arr, rng, 2000)
    radii = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-9


def test_k2_scaled_array_is_sphere_of_radius_r():
    arr = make_archimedean(3, 2, r_scale=2.5)
    rng = np.random.default_rng(5)
    pts = surface_points(arr, rng, 500)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 2.5)) < 2.5e-9


def test_cylinder_warp_is_constant():
    arr = SphericalArray(Ball(np.zeros(2), 0.7), CylinderWarp(2, r_scale=0.4))
    rng = np.random.default_rng(9)
    pts = ball_points(rng, 2, 0.7, 200)
    assert np.all(arr.warping(pts) == 0.4)


def test_custom_warp_uses_callable():
    base = Ball(np.zeros(2), 1.0)
    arr = SphericalArray(base, CustomWarp(
        2,
        warp=lambda pts: 0.3 + 0.1 * np.einsum("nd,nd->n", pts, pts),
    ))
    assert arr.warping([0.5, 0.0]) == pytest.approx(0.325, rel=1e-14)


# Warp gradient --------------------------------------------------------------


def test_k2_gradient_closed_form():
    arr = make_archimedean(3, 2)
    xs = np.linspace(-0.95, 0.95, 39)
    grads = arr.warping_gradient(xs[:, None])
    expected = -xs / np.sqrt(1.0 - xs**2)
    assert np.max(np.abs(grads[:, 0] - expected)) < 1e-8


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 4)])
def test_gradient_matches_finite_differences(n, k):
    arr = make_archimedean(n, k)
    rng = np.random.default_rng(100 * n + k)
    pts = ball_points(rng, n - k, arr.base.radius, 12, shrink=0.05)
    grads = arr.warping_gradient(pts)
    for p, g in zip(pts, grads):
        for axis in range(n - k):
            def along(t, p=p, axis=axis):
                q = p.copy()
                q[axis] = t
                return arr.warping(q)
            fd = nth_derivative(along, p[axis], 1, h=1e-3)
            assert g[axis] == pytest.approx(fd, rel=2e-7, abs=2e-9)


def test_gradient_smooth_through_ball_center():
    # The chain rule is 0/0 at the center; the even-series route must
    # give the linear behavior -(k-1) * x / r with no seam.
    for n, k in [(4, 2), (5, 3)]:
        arr = make_archimedean(n, k)
        assert np.allclose(arr.warping_gradient(np.zeros(n - k)), 0.0)
        eps = 1e-10
        g = arr.warping_gradient([eps] + [0.0] * (n - k - 1))
        assert g[0] == pytest.approx(-(k - 1) * eps, rel=1e-6)
        # no jump where the series guard hands off to the chain rule
        t = arr.scaling.series_radius_guard
        lo = arr.warping_gradient([t - 1e-12] + [0.0] * (n - k - 1))
        hi = arr.warping_gradient([t + 1e-12] + [0.0] * (n - k - 1))
        assert lo[0] == pytest.approx(hi[0], rel=1e-8)


def test_gradient_rejects_boundary_point():
    arr = make_archimedean(3, 2)
    with pytest.raises(ValueError):
        arr.warping_gradient([arr.base.radius])


def test_gradient_inside_polygon_singular_band_raises():
    hexagon = regular_polygon(6, inradius=0.8)
    arr = SphericalArray(hexagon, ArchimedeanWarp(2))
    with pytest.raises(SingularRegionError):
        arr.warping_gradient([0.0, 0.0])


def test_cylinder_gradient_is_zero():
    arr = SphericalArray(Ball(np.zeros(2), 1.0), CylinderWarp(3))
    assert np.all(arr.warping_gradient([[0.3, 0.1], [0.0, 0.0]]) == 0.0)


def test_custom_gradient_callable_and_missing():
    base = Ball(np.zeros(2), 1.0)
    arr = SphericalArray(base, CustomWarp(
        2,
        warp=lambda pts: 0.3 + 0.1 * np.einsum("nd,nd->n", pts, pts),
        warp_gradient=lambda pts: 0.2 * pts,
    ))
    assert np.allclose(arr.warping_gradient([0.5, -0.25]), [0.1, -0.05])
    bare = SphericalArray(base, CustomWarp(2, warp=lambda pts: np.full(len(pts), 0.5)))
    with pytest.raises(ValueError):
        bare.warping_gradient([0.0, 0.0])


# Projection-property residual -----------------------------------------------


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4), (6, 5)])
def test_archimedean_residual_vanishes(n, k):
    arr = make_archimedean(n, k)
    rng = np.random.default_rng(17 * n + k)
    pts = ball_points(rng, n - k, arr.base.radius, 400, shrink=1e-4)
    res = arr.app_residual(pts)
    assert np.max(np.abs(res)) < 1e-8


def test_cylinder_residual_exactly_zero():
    arr = SphericalArray(regular_polygon(5, inradius=0.6), CylinderWarp(2, r_scale=0.8))
    rng = np.random.default_rng(3)
    pts = 0.3 * unit_vectors(rng, 2, 50)
    assert np.all(arr.app_residual(pts) == 0.0)


@pytest.mark.parametrize("warp", [
    CylinderWarp(2),
    CustomWarp(2, lambda pts: np.full(len(pts), 0.5), lambda pts: np.zeros_like(pts)),
], ids=["cylinder", "custom"])
def test_residual_refuses_points_outside_the_base(warp):
    # The residual reads f through distance_to_boundary, which refuses a
    # point the base does not hold, for every warp.
    arr = SphericalArray(Ball(np.zeros(2), 1.0), warp)
    with pytest.raises(ValueError, match="inside the domain"):
        arr.app_residual([3.0, 0.0])


def test_custom_gradient_does_not_call_the_warp():
    def warp(pts):
        raise AssertionError("warp called")

    arr = SphericalArray(Ball(np.zeros(2), 1.0), CustomWarp(2, warp, lambda pts: 0.2 * pts))
    assert np.array_equal(arr.warping_gradient([[0.5, -0.25]]), [[0.1, -0.05]])


def test_non_archimedean_warp_has_nonzero_residual():
    base = Ball(np.zeros(2), 1.0)
    arr = SphericalArray(base, CustomWarp(
        2,
        warp=lambda pts: np.full(len(pts), 0.5),
        warp_gradient=lambda pts: np.zeros_like(pts),
    ))
    assert arr.app_residual([0.2, 0.1]) == pytest.approx(-0.5)
    bumpy = SphericalArray(base, CustomWarp(
        2,
        warp=lambda pts: 0.3 + 0.1 * np.einsum("nd,nd->n", pts, pts),
        warp_gradient=lambda pts: 0.2 * pts,
    ))
    res = bumpy.app_residual([[0.0, 0.0], [0.5, 0.0]])
    assert res[0] == pytest.approx(-0.7)
    assert res[1] == pytest.approx(
        0.325 * math.sqrt(1.0 + 0.01) - 1.0, rel=1e-12
    )


def test_custom_warp_reproducing_scaling_profile_over_hexagon():
    # A hand-assembled distance-composed warp over a hexagon base should
    # satisfy the projection property wherever the distance function is
    # smooth, just like the built-in mode.
    scal = make_scaling(3)
    hexagon = regular_polygon(6, inradius=0.55)
    arr = SphericalArray(hexagon, CustomWarp(
        3,
        warp=lambda pts: scal.f(hexagon.signed_distance(pts)),
        warp_gradient=lambda pts: scal.f_prime(
            hexagon.distance_to_boundary(pts)
        )[:, None] * hexagon.omega_gradient(pts),
    ))
    rng = np.random.default_rng(23)
    pts = []
    while len(pts) < 200:
        cand = rng.uniform(-0.6, 0.6, size=2)
        if (hexagon.contains(cand)
                and hexagon.distance_to_boundary(cand[None])[0] > 1e-3
                and hexagon.singular_set_distance(cand[None])[0] > 0.02):
            pts.append(cand)
    res = arr.app_residual(np.array(pts))
    assert np.max(np.abs(res)) < 1e-6


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r", [1.0, 0.7])
@pytest.mark.parametrize("shape", ["ball", "ellipse", "pentagon"])
def test_residual_matches_two_call_composition(shape, r, k):
    # app_residual takes f/R and its gradient from one value_and_gradient
    # call, which for an archimedean warp is one profile inversion per
    # point; for every warp it must equal warping / R and warping_gradient
    # assembled separately, bit for bit.  The ball's center lies in the
    # series guard, where omega_gradient would raise.
    base = {
        "ball": lambda: Ball(np.zeros(2), r * make_scaling(k).m_k),
        "ellipse": lambda: Ellipse([0.1, -0.2], [0.5 * r, 0.35 * r]),
        "pentagon": lambda: regular_polygon(5, inradius=0.5 * r),
    }[shape]()
    pts = interior_points(base, 1500, boundary_offset=1e-6 * base.inradius())
    if shape == "ball":
        pts = np.vstack([pts, base.center, base.center + 1e-9])
    custom = CustomWarp(k, lambda p: 0.5 * r + 0.1 * np.einsum("nd,nd->n", p, p),
                        lambda p: 0.2 * p, r_scale=r)
    for warp in (ArchimedeanWarp(k, r), CylinderWarp(k, r), custom):
        arr = SphericalArray(base, warp)
        g = arr.warping(pts) / r
        grad = arr.warping_gradient(pts)
        want = g ** (k - 1) * np.sqrt(1.0 + np.einsum("nd,nd->n", grad, grad)) - 1.0
        assert [v.hex() for v in arr.app_residual(pts)] == [v.hex() for v in want], warp.name


def test_ellipse_gradients_solve_the_nearest_point_few_times(monkeypatch):
    # Each interior query reads the inside check, the boundary check and
    # omega from one signed distance, so the ellipse's nearest-point solve
    # runs once for omega and once for the gradient.
    base = Ellipse([0.1, -0.2], [0.5, 0.35])
    arr = SphericalArray(base, ArchimedeanWarp(2))
    pts = np.array([[0.2, 0.0], [-0.15, -0.3]])
    calls = []
    solve = Ellipse._nearest_boundary
    monkeypatch.setattr(Ellipse, "_nearest_boundary",
                        lambda self, p: calls.append(len(p)) or solve(self, p))
    for query, most in ((base.omega_gradient, 2), (arr.warping_gradient, 3),
                        (arr.app_residual, 3)):
        calls.clear()
        query(pts)
        assert len(calls) <= most, query.__name__


# Implicit and boundary forms ------------------------------------------------


def test_implicit_zero_on_surface():
    arr = make_archimedean(4, 2)
    rng = np.random.default_rng(7)
    pts = surface_points(arr, rng, 300)
    assert np.max(np.abs(arr.implicit_eval(pts))) < 1e-12


def test_implicit_signs():
    arr = make_archimedean(3, 2)
    assert arr.implicit_eval([0.0, 0.0, 0.0]) == pytest.approx(-1.0, rel=1e-9)
    assert arr.implicit_eval([0.0, 0.9, 0.9]) > 0.0
    inside = arr.implicit_eval([[0.5, 0.1, 0.1], [0.0, 0.2, 0.0]])
    assert inside.shape == (2,) and np.all(inside < 0.0)


def test_boundary_form_zero_on_surface():
    arr = make_archimedean(4, 3)
    rng = np.random.default_rng(11)
    pts = surface_points(arr, rng, 300)
    vals = arr.boundary_form_eval(pts)
    assert np.max(np.abs(vals)) < 1e-9


def test_boundary_form_stays_accurate_near_base_boundary():
    # The squared implicit form degenerates where f -> 0; the rewritten
    # form stays well-conditioned there.
    arr = make_archimedean(3, 2)
    for eps in (1e-4, 1e-6, 1e-8):
        x1 = 1.0 - eps
        f = arr.warping([x1])
        val = arr.boundary_form_eval([x1, f, 0.0])
        assert abs(val) < 1e-9


def test_boundary_form_signs_match_implicit():
    arr = make_archimedean(3, 2)
    inside = [0.3, 0.2, 0.1]
    outside = [0.8, 0.7, 0.0]  # rho = 0.7 > f = 0.6
    assert arr.boundary_form_eval(inside) < 0.0 > arr.implicit_eval(inside)
    assert arr.boundary_form_eval(outside) > 0.0 < arr.implicit_eval(outside)


def test_boundary_form_mode_and_range_checks():
    cyl = SphericalArray(Ball(np.zeros(1), 1.0), CylinderWarp(2))
    with pytest.raises(ValueError):
        cyl.boundary_form_eval([0.0, 0.5, 0.0])
    arr = make_archimedean(3, 2)
    with pytest.raises(ValueError):
        arr.boundary_form_eval([0.0, 1.5, 0.0])


# Patch areas ----------------------------------------------------------------


def test_band_area_proportional_to_height():
    # Equal-area correspondence on the unit sphere: a band between two
    # parallel planes has area 2*pi times its height.
    arr = make_archimedean(3, 2)
    for a, b in [(-0.5, 0.5), (0.1, 0.7), (-0.95, -0.2)]:
        patch = arr.patch_volume(Region.box([a], [b]))
        assert patch == pytest.approx(2.0 * math.pi * (b - a), rel=1e-8)


def test_band_area_additivity():
    arr = make_archimedean(3, 2)
    whole = arr.patch_volume(Region.box([-0.6], [0.8]))
    left = arr.patch_volume(Region.box([-0.6], [0.1]))
    right = arr.patch_volume(Region.box([0.1], [0.8]))
    assert whole == pytest.approx(left + right, rel=1e-10)


def test_patch_over_disjoint_region_is_zero():
    arr = make_archimedean(3, 2)
    assert arr.patch_volume(Region.box([2.0], [3.0])) == 0.0


def test_patch_to_base_volume_ratio_is_constant():
    # The projection property itself: patch area over any window equals
    # the fiber sphere area times the base volume of the window.
    arr = make_archimedean(4, 2)
    coeff = sphere_area(1, 1.0)
    region = Region.box([-0.4, -0.3], [0.2, 0.5])
    patch = arr.patch_volume(region, depth=6)
    assert patch == pytest.approx(coeff * region.volume(), rel=1e-9)


def test_patch_ball_region_ratio():
    arr = make_archimedean(4, 2)
    region = Region.ball([0.2, 0.1], 0.3)
    patch = arr.patch_volume(region, depth=10, seed=2)
    expected = sphere_area(1, 1.0) * region.volume()
    assert patch == pytest.approx(expected, rel=1e-3)


def test_cylinder_patch_area():
    arr = SphericalArray(Ball(np.zeros(2), 1.0), CylinderWarp(2, r_scale=0.5))
    region = Region.box([-0.3, -0.3], [0.3, 0.3])
    patch = arr.patch_volume(region, depth=6)
    assert patch == pytest.approx(2.0 * math.pi * 0.5 * 0.36, rel=1e-9)


# Total area -----------------------------------------------------------------


def test_total_area_of_unit_sphere():
    arr = make_archimedean(3, 2)
    total = arr.total_volume()
    assert total.closed_form == pytest.approx(4.0 * math.pi, rel=1e-13)
    assert total.value == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert abs(total.value - total.closed_form) <= 1e-6 * total.closed_form


def test_total_area_scales_with_radius():
    small = make_archimedean(3, 2).total_volume()
    big = make_archimedean(3, 2, r_scale=3.0).total_volume()
    assert big.closed_form == pytest.approx(4.0 * math.pi * 9.0, rel=1e-13)
    assert big.value == pytest.approx(9.0 * small.value, rel=1e-10)


def test_total_area_of_three_sphere():
    total = make_archimedean(4, 2).total_volume()
    assert total.closed_form == pytest.approx(2.0 * math.pi**2, rel=1e-12)
    assert total.value == pytest.approx(2.0 * math.pi**2, rel=1e-6)


@pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (5, 4), (6, 4)])
def test_total_area_matches_factorized_form(n, k):
    arr = make_archimedean(n, k)
    total = arr.total_volume()
    expected = sphere_area(k - 1, 1.0) * ball_volume(n - k, arr.scaling.m_k)
    assert total.closed_form == pytest.approx(expected, rel=1e-13)
    assert total.value == pytest.approx(expected, rel=1e-6)


def test_cylinder_total_area_exact():
    base = regular_polygon(6, inradius=0.8)
    arr = SphericalArray(base, CylinderWarp(2, r_scale=0.5))
    total = arr.total_volume()
    expected = 2.0 * math.pi * 0.5 * base.volume()
    assert total.value == total.closed_form
    assert total.value == pytest.approx(expected, rel=1e-14)
    assert total.error_estimate == 0.0


def test_hexagon_base_total_area():
    # Archimedean warp over a non-ball base: the area density is still
    # the constant fiber-sphere area, so total = 2*pi * base area.
    hexagon = regular_polygon(6, inradius=0.8)
    arr = SphericalArray(hexagon, ArchimedeanWarp(2))
    total = arr.total_volume(depth=10)
    expected = 2.0 * math.pi * hexagon.volume()
    assert total.closed_form is None
    assert total.value == pytest.approx(expected, rel=2e-3)
    assert abs(total.value - expected) < 4.0 * total.error_estimate + 1e-9


# Enclosed volume ------------------------------------------------------------


def test_enclosed_volume_of_unit_ball():
    enc = make_archimedean(3, 2).enclosed_volume()
    assert enc.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-8)
    assert enc.mc_value is None and enc.mc_error is None


def test_enclosed_volume_of_four_ball():
    enc = make_archimedean(4, 2).enclosed_volume()
    assert enc.value == pytest.approx(math.pi**2 / 2.0, rel=1e-8)


def test_enclosed_volume_scales_with_radius():
    small = make_archimedean(4, 3).enclosed_volume()
    big = make_archimedean(4, 3, r_scale=2.0).enclosed_volume()
    assert big.value == pytest.approx(16.0 * small.value, rel=1e-10)


def test_enclosed_volume_monte_carlo_cross_check():
    enc = make_archimedean(3, 2).enclosed_volume(samples=200000, seed=42)
    assert enc.mc_value is not None and enc.mc_error > 0.0
    assert abs(enc.mc_value - enc.value) < 4.0 * enc.mc_error


def test_enclosed_volume_refuses_a_negative_or_fractional_sample_count():
    arr = make_archimedean(3, 2)
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        arr.enclosed_volume(samples=-5)
    with pytest.raises(TypeError):
        arr.enclosed_volume(samples=2.5)
    assert arr.enclosed_volume(samples=np.int64(1000), seed=1).mc_value is not None


def test_enclosed_monte_carlo_deterministic_by_seed():
    arr = make_archimedean(3, 2)
    a = arr.enclosed_volume(samples=50000, seed=7)
    b = arr.enclosed_volume(samples=50000, seed=7)
    c = arr.enclosed_volume(samples=50000, seed=8)
    assert a.mc_value == b.mc_value
    assert a.mc_value != c.mc_value


@pytest.mark.parametrize("n,k", [(4, 3), (3, 2)])
def test_enclosed_monte_carlo_hits_match_forward_form(n, k):
    # Regenerate the sample stream and count hits by |x'|^2 <= f(x'')^2.
    arr = make_archimedean(n, k)
    samples, seed = 100000, 3
    blo, bhi = arr.base.bounding_box()
    lo = np.concatenate([blo, -np.ones(k)])
    hi = np.concatenate([bhi, np.ones(k)])
    seq = np.random.SeedSequence([seed, 0xE2C])
    philox = np.random.Philox(key=seq.generate_state(2, np.uint64))
    hits = 0
    inverse_hits = 0
    for index, m in enumerate((65536, samples - 65536)):
        pts = lo + np.random.Generator(philox.jumped(index)).random((m, n)) * (hi - lo)
        xb, xf = pts[:, : n - k], pts[:, n - k:]
        sd = arr.base.signed_distance(xb)
        inside = sd >= 0.0
        f = arr.warping(xb[inside])
        hits += int(np.count_nonzero(np.sum(xf[inside] ** 2, axis=1) <= f * f))
        # The boundary form with an incomplete beta on every sample.
        rho = np.linalg.norm(xf[inside], axis=1)
        tall = rho <= 1.0
        inverse_hits += int(np.count_nonzero(
            arr.scaling.f_inverse(rho[tall]) <= sd[inside][tall]))
    value, _ = arr._enclosed_mc(samples, seed)
    assert inverse_hits == hits
    assert value == float(np.prod(hi - lo)) * (hits / samples)


# float.hex of (value, error) of _enclosed_mc(10**6, seed): 16 chunks each;
# k = 9 sums the fiber norm pairwise.
ENCLOSED_MC_HEX = {
    (4, 3, 7): ("0x1.a4b24519b49c2p+1", "0x1.2a2d8e78b7e9bp-8"),
    (4, 2, 11): ("0x1.3c77dd872f33fp+2", "0x1.e48ca01220687p-8"),
    (5, 3, 3): ("0x1.256b5f100308ep+1", "0x1.2cd4f964528e3p-8"),
    (12, 9, 5): ("0x1.f0cb5b5b870fep-6", "0x1.c21661acc7e37p-11"),
}


@pytest.mark.parametrize("n,k,seed", sorted(ENCLOSED_MC_HEX))
def test_enclosed_monte_carlo_bits_are_pinned(n, k, seed):
    value, error = make_archimedean(n, k)._enclosed_mc(10 ** 6, seed)
    assert (value.hex(), error.hex()) == ENCLOSED_MC_HEX[n, k, seed]


def test_enclosed_monte_carlo_inverts_once_per_call(monkeypatch):
    arr = make_archimedean(4, 3)
    sizes = []
    inverse = type(arr.scaling).f_inverse
    monkeypatch.setattr(type(arr.scaling), "f_inverse",
                        lambda self, y: sizes.append(np.size(y)) or inverse(self, y))
    arr._enclosed_mc(300_000, 7)  # five chunks
    assert len(sizes) == 1 and sizes[0] > 0


@pytest.mark.parametrize("dim", range(1, 11))
def test_row_norm_sites_equal_the_norm_bitwise(dim, monkeypatch):
    norm, sites = archarray.base.row_norm, set()

    def checked(v):
        got = norm(v)
        assert got.tobytes() == np.linalg.norm(v, axis=-1).tobytes()
        sites.add(sys._getframe(1).f_code.co_name)
        return got

    for module in (archarray.array, archarray.base, archarray.verify):
        monkeypatch.setattr(module, "row_norm", checked)
    rng = np.random.default_rng(dim)
    checked(rng.standard_normal((5000, dim)) * 10.0 ** rng.integers(-3, 4, (5000, dim)))
    ball = Ball(np.full(dim, 0.25), 2.0)
    pts = 0.25 + ball_points(rng, dim, 2.0, 2000)
    pts = pts[np.abs(pts - 0.25).max(axis=1) > 0.1]  # clear of the singular band
    d = pts - 0.25
    want_grad = -d / np.linalg.norm(d, axis=1, keepdims=True)
    assert ball.omega_gradient(pts).tobytes() == want_grad.tobytes()
    want = {"test_row_norm_sites_equal_the_norm_bitwise", "_gradient"}
    if dim >= 2:
        arr = make_archimedean(dim + 1, dim)
        arr.boundary_form_eval(sample_surface(arr, 2000, seed=dim))
        arr._enclosed_mc(20_000, dim)
        want |= {"boundary_form_eval", "sample_surface", "_enclosed_mc"}
    assert sites == want


def test_cylinder_enclosed_volume_exact():
    base = Ball(np.zeros(2), 0.7)
    arr = SphericalArray(base, CylinderWarp(2, r_scale=0.5))
    enc = arr.enclosed_volume()
    assert enc.value == pytest.approx(
        math.pi * 0.25 * base.volume(), rel=1e-14
    )
    assert enc.error_estimate == 0.0


def test_hexagon_base_enclosed_volume():
    # Coarea oracle: omega level sets of a regular hexagon of inradius a
    # are hexagons of inradius a - t with perimeter 4*sqrt(3)*(a - t),
    # and the k = 2 profile gives f^2 = omega*(2 - omega), so
    #   enclosed = pi * 4*sqrt(3) * (a^3/3 - a^4/12).
    a = 0.8
    hexagon = regular_polygon(6, inradius=a)
    arr = SphericalArray(hexagon, ArchimedeanWarp(2))
    enc = arr.enclosed_volume(depth=10)
    expected = math.pi * 4.0 * math.sqrt(3.0) * (a**3 / 3.0 - a**4 / 12.0)
    assert enc.value == pytest.approx(expected, rel=2e-3)
    assert abs(enc.value - expected) < 4.0 * enc.error_estimate + 1e-9


def test_custom_warp_enclosed_volume():
    # f(x) = 0.3 + 0.1*|x|^2 over the unit disk with k = 2:
    # enclosed = pi * integral of f^2 = 2*pi^2 * (0.045 + 0.015 + 1/600).
    base = Ball(np.zeros(2), 1.0)
    arr = SphericalArray(base, CustomWarp(
        2,
        warp=lambda pts: 0.3 + 0.1 * np.einsum("nd,nd->n", pts, pts),
        warp_gradient=lambda pts: 0.2 * pts,
    ))
    enc = arr.enclosed_volume(depth=10)
    expected = 2.0 * math.pi**2 * (0.045 + 0.015 + 1.0 / 600.0)
    assert enc.value == pytest.approx(expected, rel=2e-3)
    assert abs(enc.value - expected) < 4.0 * enc.error_estimate + 1e-9


def test_cylinder_monte_carlo_matches_closed_form():
    # The forward hit test |x'|^2 <= f^2 with f = R on the whole base.
    arr = SphericalArray(regular_polygon(5, inradius=0.7), CylinderWarp(2, r_scale=0.3))
    enc = arr.enclosed_volume(samples=200000, seed=3)
    assert enc.value == pytest.approx(math.pi * 0.09 * arr.base.volume(), rel=1e-14)
    assert abs(enc.mc_value - enc.value) < 4.0 * enc.mc_error


def test_custom_monte_carlo_matches_deterministic_value():
    # f = (1 - |x|^2) / 2 on the unit disk: enclosed = pi^2 / 12.
    arr = SphericalArray(Ball(np.zeros(2), 1.0), CustomWarp(
        2,
        warp=lambda pts: 0.5 * (1.0 - np.einsum("nd,nd->n", pts, pts)),
        warp_gradient=lambda pts: -pts,
    ))
    enc = arr.enclosed_volume(samples=200000, seed=3, depth=8)
    assert enc.value == pytest.approx(math.pi ** 2 / 12.0, rel=2e-3)
    assert abs(enc.mc_value - enc.value) < 4.0 * enc.mc_error


def test_monte_carlo_rejects_a_warp_taller_than_its_box():
    # The sampling box reaches R in each fiber coordinate, so a fiber
    # radius of 2R would be clipped to about a third of its true volume.
    arr = SphericalArray(Ball(np.zeros(2), 1.0),
                         CustomWarp(2, warp=lambda pts: np.full(len(pts), 2.0),
                                    warp_gradient=lambda pts: np.zeros_like(pts)))
    assert arr.enclosed_volume(depth=8).value == pytest.approx(4.0 * math.pi ** 2, rel=2e-3)
    with pytest.raises(ValueError, match="exceeds r_scale"):
        arr.enclosed_volume(samples=100000, seed=3, depth=8)


@pytest.mark.parametrize("mode", ["archimedean", "cylinder"])
def test_projection_constant_is_the_fiber_sphere_area(mode):
    base = regular_polygon(5, inradius=0.6)
    warp = {"archimedean": ArchimedeanWarp, "cylinder": CylinderWarp}[mode]
    arr = SphericalArray(base, warp(3, r_scale=1.5))
    assert arr.projection_constant == sphere_area(2, 1.0) * 1.5 ** 2
    assert arr.projection_constant == pytest.approx(4.0 * math.pi * 2.25, rel=1e-15)


# Serialization --------------------------------------------------------------


def test_json_round_trip_archimedean():
    arr = make_archimedean(5, 3, r_scale=1.5)
    text = arr.to_json()
    back = array_from_json(text)
    assert (back.n, back.k, back.r_scale, back.warp_mode) == (5, 3, 1.5,
                                                              "archimedean")
    rng = np.random.default_rng(2)
    pts = ball_points(rng, 2, arr.base.radius, 50)
    assert np.allclose(back.warping(pts), arr.warping(pts), rtol=0.0,
                       atol=1e-14)


def test_json_round_trip_cylinder_polygon_base():
    arr = SphericalArray(regular_polygon(5, inradius=0.6), CylinderWarp(2, r_scale=0.8))
    back = array_from_json(arr.to_json())
    assert back.warp_mode == "cylinder"
    assert back.base.volume() == pytest.approx(arr.base.volume(), rel=1e-14)
    assert back.warping([0.1, 0.1]) == 0.8


@pytest.mark.parametrize("base", [
    Ball([0.1, -0.2], 0.7),
    Ellipse([0.1, -0.2], [0.9, 0.5]),
    regular_polygon(5, inradius=0.7),
], ids=["ball", "ellipse", "pentagon"])
def test_json_round_trip_keeps_interior_points(base):
    # interior_points reads the base's singular band, which the JSON
    # document does not hold: the reloaded base must derive the same one.
    arr = SphericalArray(base, CylinderWarp(2, r_scale=0.5))
    back = array_from_json(arr.to_json())
    assert back.base.singular_band == base.singular_band
    assert np.array_equal(interior_points(back.base, 2000), interior_points(base, 2000))


def test_json_document_fields():
    doc = json.loads(make_archimedean(3, 2).to_json())
    assert doc["schema"] == 1
    assert doc["n"] == 3 and doc["k"] == 2
    assert doc["warp_mode"] == "archimedean"
    assert "base" in doc


def test_custom_warp_not_serializable():
    arr = SphericalArray(Ball(np.zeros(1), 1.0),
                         CustomWarp(2, warp=lambda pts: np.full(len(pts), 0.5)))
    with pytest.raises(ValueError):
        arr.to_json()


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        array_from_json(json.dumps({"schema": 2}))


@pytest.mark.parametrize("change", [
    {"warp_mode": "custom"},
    {"warp_mode": "helix"},
    {"warp_mode": ["archimedean"]},
    {"n": 4},
], ids=["custom", "unknown", "not-a-name", "n-mismatch"])
def test_json_document_refused(change):
    # A custom warp has no callables in JSON, an unknown name names no
    # warp, and n must be the base dimension plus k: each is a ValueError.
    doc = {**json.loads(make_archimedean(3, 2).to_json()), **change}
    with pytest.raises(ValueError):
        array_from_json(json.dumps(doc))


# Equizonal closed forms -----------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_equizonal_total_frozen_values(n):
    assert equizonal_total_volume(n) == pytest.approx(
        EQUIZONAL_TOTAL[n], rel=1e-13
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_equizonal_enclosed_frozen_values(n):
    assert equizonal_enclosed_volume(n) == pytest.approx(
        EQUIZONAL_ENCLOSED[n], rel=1e-13
    )


def test_equizonal_total_matches_factorized_form():
    # Both closed forms describe the codimension n-1 array's area:
    # the revolution formula and Area(S^{n-2}) * 2 * m_{n-1}.
    for n in (3, 4, 5, 6):
        scal = make_scaling(n - 1)
        factorized = sphere_area(n - 2, 1.0) * 2.0 * scal.m_k
        assert equizonal_total_volume(n) == pytest.approx(
            factorized, rel=1e-12
        )


def test_equizonal_sphere_values():
    assert equizonal_total_volume(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert equizonal_enclosed_volume(3) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-14
    )


@pytest.mark.parametrize("n", [4, 5])
def test_equizonal_matches_quadrature(n):
    arr = make_archimedean(n, n - 1)
    total = arr.total_volume()
    enc = arr.enclosed_volume()
    assert total.value == pytest.approx(equizonal_total_volume(n), rel=1e-6)
    assert enc.value == pytest.approx(equizonal_enclosed_volume(n), rel=1e-6)


def test_equizonal_scale_powers():
    assert equizonal_total_volume(5, r_scale=2.0) == pytest.approx(
        16.0 * equizonal_total_volume(5), rel=1e-14
    )
    assert equizonal_enclosed_volume(5, r_scale=2.0) == pytest.approx(
        32.0 * equizonal_enclosed_volume(5), rel=1e-14
    )


def test_equizonal_rejects_low_dimension():
    with pytest.raises(ValueError):
        equizonal_total_volume(2)
    with pytest.raises(ValueError):
        equizonal_enclosed_volume(2)

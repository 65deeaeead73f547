"""End-to-end acceptance gates.

Each test covers one numbered criterion and prints a single
``criterion NN: PASS/FAIL (...)`` line (visible with ``pytest -s``, or in
captured output otherwise) before asserting, so a scan of the log shows
the full scorecard.  The criteria exercise the public API only; expected
values come from closed forms, frozen high-precision constants, and the
independent finite-difference / quadrature oracles also used by the
per-module suites.
"""

import functools
import math

import numpy as np

from archarray import (
    Ball,
    CustomWarp,
    SphericalArray,
    app_statistical_test,
    ball_volume,
    clipped_quadrature,
    equizonal_enclosed_volume,
    equizonal_total_volume,
    graph_slice_mesh,
    interior_points,
    make_archimedean,
    make_scaling,
    mesh_area,
    mk_closed_form,
    mk_quadrature,
    random_regions,
    regular_polygon,
    revolve_mesh,
    sample_surface,
    sphere_area,
)
from testutil import nth_derivative

# Every supported (dimension, codimension) pair.
PAIRS = [(n, k) for n in range(3, 7) for k in range(2, n)]


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


@functools.lru_cache(maxsize=None)
def _scaling(k):
    return make_scaling(k)


@functools.lru_cache(maxsize=None)
def _arch(n, k, r_scale=1.0):
    return make_archimedean(n, k, r_scale)


def test_criterion_01_normalization_constant_dual_route():
    worst = 0.0
    for k in range(2, 13):
        quad = mk_quadrature(k)
        closed = mk_closed_form(k)
        worst = max(worst, abs(quad - closed) / closed)
    anchor = abs(mk_closed_form(2) - 1.0)
    ok = worst <= 1e-10 and anchor <= 1e-12
    _report(1, ok,
            f"max rel quadrature/closed-form gap {worst:.3e} for k=2..12, "
            f"|M_2 - 1| = {anchor:.3e}")


def test_criterion_02_profile_roundtrip_and_defining_relation():
    worst_rt = 0.0
    worst_ode = 0.0
    for k in range(2, 9):
        s = _scaling(k)
        ys = np.linspace(0.0, 1.0, 1000)
        xs = s.f_inverse(ys)
        worst_rt = max(worst_rt, float(np.max(np.abs(s.f(xs) - ys))))

        grid = np.linspace(s.m_k / 1000.0, s.m_k, 1000)
        y = s.f(grid)
        yp = s.f_prime(grid)
        resid = y ** (2 * k - 2) + y ** (2 * k - 4) * (y * yp) ** 2 - 1.0
        worst_ode = max(worst_ode, float(np.max(np.abs(resid))))
    ok = worst_rt <= 1e-10 and worst_ode <= 1e-8
    _report(2, ok,
            f"k=2..8 on 1000-point grids: roundtrip {worst_rt:.3e}, "
            f"defining-relation residual {worst_ode:.3e}")


def test_criterion_03_codimension_two_arrays_are_round_spheres():
    worst = 0.0
    for n in range(3, 7):
        arr = _arch(n, 2)
        pts = sample_surface(arr, 10000, seed=n)
        radii = np.linalg.norm(pts, axis=1)
        worst = max(worst, float(np.max(np.abs(radii - 1.0))))
    ok = worst <= 1e-9
    _report(3, ok,
            f"max | |x| - 1 | = {worst:.3e} over 10^4 surface samples, n=3..6")


def test_criterion_04_pointwise_residual_on_interior_grid():
    worst = 0.0
    for n, k in PAIRS:
        arr = _arch(n, k)
        delta = 1e-6 * arr.base.inradius()
        pts = interior_points(arr.base, 10000, boundary_offset=delta)
        res = arr.app_residual(pts)
        worst = max(worst, float(np.max(np.abs(res))))
    ok = worst <= 1e-8
    _report(4, ok,
            f"max |area-density residual| = {worst:.3e} over 10^4 "
            f"quasi-random interior points per (n, k) pair")


def test_criterion_05_patch_volumes_match_constant_factor():
    # Matching depth/seed between the patch integral and the bare base
    # clip makes the quadrature partitions identical, so the comparison
    # isolates the constant-factor law from quadrature error.
    depth = 6
    worst = 0.0
    ratio_gap = None
    for n, k in PAIRS:
        arr = _arch(n, k)
        coeff = sphere_area(k - 1, 1.0)
        regions = random_regions(arr.base, 20, seed=100 * n + k)
        for region in regions:
            clip = clipped_quadrature(arr.base, region, depth=depth, seed=0)
            patch = arr.patch_volume(region, depth=depth, seed=0)
            predicted = coeff * clip.integral
            worst = max(worst, abs(patch - predicted) / predicted)
            if (n, k) == (3, 2) and ratio_gap is None:
                ratio_gap = abs(patch / clip.integral - 2.0 * math.pi) \
                    / (2.0 * math.pi)
    ok = worst <= 1e-6 and ratio_gap <= 1e-8
    _report(5, ok,
            f"20 regions per pair: max rel gap to C * clipped volume "
            f"{worst:.3e}; n=3 factor vs 2*pi rel {ratio_gap:.3e}")


def test_criterion_06_total_area_closed_forms():
    worst = 0.0
    for n, k in PAIRS:
        arr = _arch(n, k)
        tv = arr.total_volume()
        closed = sphere_area(k - 1, 1.0) * ball_volume(n - k, _scaling(k).m_k)
        assert tv.closed_form is not None
        assert abs(tv.closed_form - closed) <= 1e-12 * closed
        worst = max(worst, abs(tv.value - closed) / closed)

    sphere_gap = 0.0
    for r in (1.0, 1.7):
        tv = make_archimedean(3, 2, r).total_volume()
        target = 4.0 * math.pi * r * r
        sphere_gap = max(sphere_gap, abs(tv.value - target) / target)

    tv = _arch(4, 3).total_volume()
    target = equizonal_total_volume(4)
    assert abs(target - 15.056274237662748) <= 1e-12 * target
    equi_gap = abs(tv.value - target) / target

    ok = worst <= 1e-6 and sphere_gap <= 1e-6 and equi_gap <= 1e-6
    _report(6, ok,
            f"total area vs closed form: grid max rel {worst:.3e}, "
            f"round-sphere rel {sphere_gap:.3e}, "
            f"equizonal n=4 rel {equi_gap:.3e}")


def test_criterion_07_enclosed_volumes_deterministic_and_mc():
    cases = [
        (_arch(3, 2), 4.0 * math.pi / 3.0),
        (_arch(4, 3), equizonal_enclosed_volume(4)),
    ]
    worst_det = 0.0
    worst_z = 0.0
    for arr, exact in cases:
        ev = arr.enclosed_volume(samples=10**6, seed=0)
        worst_det = max(worst_det, abs(ev.value - exact) / exact)
        worst_z = max(worst_z, abs(ev.mc_value - exact) / ev.mc_error)
    ok = worst_det <= 1e-4 and worst_z <= 3.0
    _report(7, ok,
            f"deterministic rel {worst_det:.3e}; Monte Carlo within "
            f"{worst_z:.2f} standard errors at 10^6 samples")


def test_criterion_08_boundary_series_against_finite_differences(build_scaling):
    # Independent probe: force direct (non-series) evaluation with a
    # tiny guard, substitute u = (m_k - x)^2 so the profile is analytic
    # in u, and Richardson-differentiate at u = 0.
    worst_even = 0.0
    worst_odd = 0.0
    for k in range(2, 7):
        s = _scaling(k)
        coefs = s.taylor_at_mk(6)
        probe = build_scaling(k, GUARD_FRACTION=1e-9)

        def even_profile(u):
            return probe.f(probe.m_k - math.sqrt(max(u, 0.0)))

        assert abs(coefs[0] - 1.0) <= 1e-12
        for j in (1, 2, 3):
            deriv = nth_derivative(
                even_profile, 0.0, j, h=0.04 * probe.m_k**2, side=+1,
                levels=3,
            )
            target = coefs[j] * math.factorial(j)
            worst_even = max(worst_even, abs(deriv - target) / abs(target))

        d1 = nth_derivative(
            lambda x: probe.f(x), probe.m_k, 1, h=0.03 * probe.m_k, side=-1
        )
        worst_odd = max(worst_odd, abs(d1))
        ts = np.linspace(0.02, 0.12, 41) * s.m_k
        u = ts**2
        series = np.zeros_like(u)
        for cj in s.taylor[::-1]:
            series = series * u + cj
        resid = np.abs(probe.f(s.m_k - ts) - series) / ts**3
        worst_odd = max(worst_odd, float(np.max(resid)))
    ok = worst_even <= 1e-5 and worst_odd <= 1e-7
    _report(8, ok,
            f"k=2..6 coefficients through order 6: max rel FD gap "
            f"{worst_even:.3e}; odd-component bound {worst_odd:.3e}")


def test_criterion_09_statistical_projection_test():
    details = []
    ok = True
    for arr, seed in ((_arch(4, 3), 901), (_arch(3, 2), 903)):
        regions = random_regions(arr.base, 20, seed=seed)
        report = app_statistical_test(arr, regions, 10**6, seed=seed + 1)
        outliers = report.count_large_z(4.0)
        ok = ok and report.passed() and report.p_value >= 0.001 \
            and outliers <= 1 and not report.low_expected
        details.append(f"p={report.p_value:.3f}/outliers={outliers}")

    base = Ball(np.zeros(2), 1.0)
    control = SphericalArray(base, CustomWarp(
        2,
        warp=lambda pts: 0.2 + 0.6 * np.einsum("nd,nd->n", pts, pts),
        warp_gradient=lambda pts: 1.2 * pts,
    ))
    regions = random_regions(base, 20, seed=905)
    report = app_statistical_test(control, regions, 10**5, seed=906)
    control_z = report.count_large_z(4.0)
    ok = ok and not report.passed() and control_z >= 5
    _report(9, ok,
            f"positive cases {details[0]}, {details[1]}; negative control "
            f"rejected with {control_z} regions beyond |z| = 4")


def test_criterion_10_mesh_convergence_and_watertightness():
    arr = _arch(3, 2)
    target = 4.0 * math.pi
    errors = []
    watertight = True
    for res in (64, 128, 256):
        mesh = revolve_mesh(arr, res, res)
        watertight = watertight and mesh.closed and mesh.is_watertight()
        errors.append(abs(mesh_area(mesh) - target) / target)
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    slab = graph_slice_mesh(_arch(4, 2), res=24)
    watertight = watertight and slab.closed and slab.is_watertight()
    ok = min(orders) >= 1.9 and watertight
    _report(10, ok,
            f"surface-area convergence orders {orders[0]:.3f}, "
            f"{orders[1]:.3f} across (64,128,256)^2; all closed meshes "
            f"watertight: {watertight}")


def test_criterion_11_custom_warp_over_polygon_base():
    scal = _scaling(3)
    hexagon = regular_polygon(6, inradius=0.55)
    assert hexagon.inradius() < scal.m_k
    arr = SphericalArray(hexagon, CustomWarp(
        3,
        warp=lambda pts: scal.f(hexagon.signed_distance(pts)),
        warp_gradient=lambda pts: scal.f_prime(
            hexagon.distance_to_boundary(pts)
        )[:, None] * hexagon.omega_gradient(pts),
    ))
    pts = interior_points(hexagon, 10000,
                          boundary_offset=1e-6 * hexagon.inradius())
    res = arr.app_residual(pts)
    worst = float(np.max(np.abs(res)))
    ok = worst <= 1e-6
    _report(11, ok,
            f"distance-composed hexagon warp: max residual {worst:.3e} "
            f"over 10^4 interior points off the medial axis")

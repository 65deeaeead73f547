"""Mesh builders, watertightness, and area/volume convergence.

Oracles: hand-built tetrahedron; the k = 2 array in R^3 is the unit
sphere (area 4*pi, volume 4*pi/3); a constant warp revolves to a capped
tube and graph-slices to a slab with known closed forms; the
hexagon-base slice volume comes from the coarea formula evaluated with
a Gauss-Legendre rule independent of the package quadrature.
"""

import math
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest

from archarray.array import ArchimedeanWarp, CylinderWarp, SphericalArray, make_archimedean
from archarray.base import Ball, regular_polygon
from archarray.mesh import (
    Mesh,
    _g17_template,
    csv_text,
    graph_slice_mesh,
    mesh_area,
    profile_curve,
    revolve_mesh,
    write_obj,
    write_profile_csv,
)
from archarray.scaling import make_scaling
from testutil import parse_obj

TET_VERTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)
TET_TRIS = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


# Mesh class -----------------------------------------------------------------


def test_tetrahedron_metrics():
    mesh = Mesh(TET_VERTS, TET_TRIS, closed=True)
    assert mesh.is_watertight()
    assert mesh.euler_characteristic() == 2
    assert mesh.signed_volume() == pytest.approx(1.0 / 6.0, rel=1e-14)
    expected_area = 1.5 + math.sqrt(3.0) / 2.0
    assert mesh_area(mesh) == pytest.approx(expected_area, rel=1e-14)


def test_orientation_flip_negates_volume():
    mesh = Mesh(TET_VERTS, TET_TRIS[:, ::-1], closed=True)
    assert mesh.signed_volume() == pytest.approx(-1.0 / 6.0, rel=1e-14)


def test_open_mesh_is_not_watertight():
    for tris in (
        TET_TRIS[:3],  # open: the three rim edges are used once
        np.vstack([TET_TRIS, TET_TRIS[:1]]),  # a duplicate: its edges are used 3 times
        np.vstack([TET_TRIS, TET_TRIS[:1], TET_TRIS[:1, ::-1]]),  # and 4 times
    ):
        mesh = Mesh(TET_VERTS, tris, closed=False)
        assert not mesh.is_watertight()
        with pytest.raises(ValueError):
            Mesh(TET_VERTS, tris, closed=True)


def test_edge_counts_match_a_loop_count():
    tet = Mesh(TET_VERTS, np.vstack([TET_TRIS, TET_TRIS[:1], TET_TRIS[:1, ::-1]]), closed=False)
    assert sorted(tet.edge_counts().values()) == [2, 2, 2, 4, 4, 4]
    for mesh in (tet, revolve_mesh(make_archimedean(3, 2), 6, 7),
                 graph_slice_mesh(make_archimedean(4, 2), 5)):
        loop = Counter(tuple(sorted(edge)) for a, b, c in mesh.triangles.tolist()
                       for edge in ((a, b), (b, c), (c, a)))
        assert mesh.edge_counts() == dict(loop)
        assert mesh.euler_characteristic() == len(mesh.vertices) - len(loop) + len(mesh.triangles)


def test_edge_counts():
    mesh = Mesh(TET_VERTS, TET_TRIS, closed=True)
    counts = mesh.edge_counts()
    assert len(counts) == 6
    assert all(c == 2 for c in counts.values())


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(TET_VERTS[:, :2], TET_TRIS, closed=False)
    with pytest.raises(ValueError):
        Mesh(TET_VERTS, TET_TRIS[:, :2], closed=False)
    with pytest.raises(ValueError):
        Mesh(TET_VERTS, np.array([[0, 1, 9]]), closed=False)


# Profile curve --------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5])
def test_profile_curve_endpoints_exact(k):
    scal = make_scaling(k)
    pts = profile_curve(scal, 33)
    assert pts.shape == (33, 2)
    assert pts[0, 0] == 0.0 and pts[0, 1] == 0.0
    assert pts[-1, 0] == scal.m_k and pts[-1, 1] == 1.0


def test_profile_curve_monotone():
    pts = profile_curve(make_scaling(4), 101)
    assert np.all(np.diff(pts[:, 0]) > 0.0)
    assert np.all(np.diff(pts[:, 1]) > 0.0)


def test_profile_curve_k2_on_quarter_circle():
    pts = profile_curve(make_scaling(2), 65)
    residual = (pts[:, 0] - 1.0) ** 2 + pts[:, 1] ** 2 - 1.0
    assert np.max(np.abs(residual)) < 1e-9


def test_profile_curve_clusters_toward_endpoints():
    n = 41
    pts = profile_curve(make_scaling(3), n)
    m = pts[-1, 0]
    assert pts[1, 0] < m / (2 * n)
    assert m - pts[-2, 0] < m / (2 * n)


def test_profile_curve_minimum_samples():
    pts = profile_curve(make_scaling(2), 2)
    assert pts[0, 1] == 0.0 and pts[1, 1] == 1.0
    with pytest.raises(ValueError):
        profile_curve(make_scaling(2), 1)


# Surface of revolution ------------------------------------------------------


def test_revolve_sphere_topology_and_metrics():
    mesh = revolve_mesh(make_archimedean(3, 2), 64, 64)
    assert mesh.closed and mesh.is_watertight()
    assert mesh.euler_characteristic() == 2
    assert mesh_area(mesh) == pytest.approx(4.0 * math.pi, rel=2e-3)
    assert mesh.signed_volume() == pytest.approx(4.0 * math.pi / 3.0,
                                                 rel=5e-3)


def test_revolve_sphere_vertices_on_sphere():
    mesh = revolve_mesh(make_archimedean(3, 2), 48, 48)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-7


def test_revolve_area_second_order_convergence():
    arr = make_archimedean(3, 2)
    errs = []
    for res in (64, 128, 256):
        area = mesh_area(revolve_mesh(arr, res, res))
        errs.append(abs(area - 4.0 * math.pi) / (4.0 * math.pi))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_revolve_capped_tube():
    # Constant warp: lateral tube area plus two end caps, which the pole
    # fans approximate by near-flat disks under Chebyshev clustering.
    cyl = SphericalArray(Ball(np.zeros(1), 0.8), CylinderWarp(2, r_scale=0.5))
    mesh = revolve_mesh(cyl, 128, 128)
    assert mesh.is_watertight()
    oracle = 2.0 * math.pi * 0.5 * 1.6 + 2.0 * math.pi * 0.25
    assert mesh_area(mesh) == pytest.approx(oracle, rel=1e-3)
    assert mesh.signed_volume() == pytest.approx(
        math.pi * 0.25 * 1.6, rel=1e-3
    )


def test_revolve_positive_orientation():
    assert revolve_mesh(make_archimedean(3, 2), 16, 16).signed_volume() > 0.0


def test_revolve_deterministic():
    a = revolve_mesh(make_archimedean(3, 2), 32, 32)
    b = revolve_mesh(make_archimedean(3, 2), 32, 32)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)


def test_revolve_validation():
    with pytest.raises(ValueError):
        revolve_mesh(make_archimedean(4, 2))
    with pytest.raises(ValueError):
        revolve_mesh(make_archimedean(3, 2), 1, 64)
    with pytest.raises(ValueError):
        revolve_mesh(make_archimedean(3, 2), 64, 2)


# Two-sheeted graph slice ----------------------------------------------------


def test_graph_slice_sphere():
    mesh = graph_slice_mesh(make_archimedean(4, 2), 48)
    assert mesh.closed and mesh.is_watertight()
    assert mesh.euler_characteristic() == 2
    assert mesh_area(mesh) == pytest.approx(4.0 * math.pi, rel=1e-3)
    assert mesh.signed_volume() == pytest.approx(4.0 * math.pi / 3.0,
                                                 rel=2e-3)


def test_graph_slice_rim_on_base_boundary():
    arr = make_archimedean(4, 2)
    res = 24
    mesh = graph_slice_mesh(arr, res)
    n_ang = 2 * res
    rim = mesh.vertices[1 + (res - 1) * n_ang: 1 + res * n_ang]
    assert np.all(rim[:, 2] == 0.0)
    sd = arr.base.signed_distance(rim[:, :2])
    assert np.max(np.abs(sd)) < 1e-9


def test_graph_slice_vertices_satisfy_implicit_equation():
    arr = make_archimedean(4, 2)
    res = 24
    mesh = graph_slice_mesh(arr, res)
    n_ang = 2 * res
    rim_start = 1 + (res - 1) * n_ang
    rim_stop = 1 + res * n_ang
    keep = np.ones(len(mesh.vertices), dtype=bool)
    keep[rim_start:rim_stop] = False  # rim base points sit on the boundary
    v = mesh.vertices[keep]
    pts4 = np.column_stack([v[:, 0], v[:, 1], v[:, 2], np.zeros(len(v))])
    assert np.max(np.abs(arr.implicit_eval(pts4))) < 1e-10


def test_graph_slice_slab_over_disk():
    # Constant warp over a disk: two copies of the base plus the side
    # wall of height 2 * r_scale, closed by the shared rim.
    arr = SphericalArray(Ball(np.zeros(2), 0.7), CylinderWarp(2, r_scale=0.3))
    mesh = graph_slice_mesh(arr, 96)
    assert mesh.is_watertight()
    area_oracle = 2.0 * math.pi * 0.49 + 2.0 * math.pi * 0.7 * 0.6
    vol_oracle = math.pi * 0.49 * 0.6
    assert mesh_area(mesh) == pytest.approx(area_oracle, rel=1e-3)
    assert mesh.signed_volume() == pytest.approx(vol_oracle, rel=1e-3)


def test_graph_slice_hexagon_base_volume():
    # Coarea oracle, Gauss-Legendre in the distance variable:
    # volume = 2 * 4*sqrt(3) * integral of f_2(t) * (a - t) on [0, a].
    a = 0.8
    hexagon = regular_polygon(6, inradius=a)
    arr = SphericalArray(hexagon, ArchimedeanWarp(2))
    mesh = graph_slice_mesh(arr, 96)
    assert mesh.is_watertight()
    assert mesh.euler_characteristic() == 2
    t, w = np.polynomial.legendre.leggauss(200)
    t = 0.5 * a * (t + 1.0)
    w = 0.5 * a * w
    oracle = 2.0 * 4.0 * math.sqrt(3.0) * float(
        np.sum(w * np.sqrt(t * (2.0 - t)) * (a - t))
    )
    assert mesh.signed_volume() == pytest.approx(oracle, rel=5e-4)


def test_graph_slice_deterministic():
    arr = make_archimedean(4, 2)
    a = graph_slice_mesh(arr, 20)
    b = graph_slice_mesh(arr, 20)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)


def test_graph_slice_validation():
    with pytest.raises(ValueError):
        graph_slice_mesh(make_archimedean(3, 2))
    with pytest.raises(ValueError):
        graph_slice_mesh(make_archimedean(4, 2), 2)


# File output ----------------------------------------------------------------


def test_obj_round_trip(tmp_path):
    mesh = revolve_mesh(make_archimedean(3, 2), 8, 8)
    path = tmp_path / "sphere.obj"
    write_obj(mesh, path)
    verts, faces = parse_obj(path.read_text())
    assert np.array_equal(faces, mesh.triangles)
    assert np.allclose(verts, mesh.vertices, rtol=1e-8, atol=1e-12)


def test_obj_format(tmp_path):
    mesh = Mesh(TET_VERTS, TET_TRIS, closed=True)
    path = tmp_path / "tet.obj"
    write_obj(mesh, path)
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert len(lines) == len(mesh.vertices) + len(mesh.triangles)
    assert lines[0] == "v 0 0 0"
    assert lines[-1] == "f 2 3 4"


def test_text_exports_match_a_row_loop(tmp_path):
    # Over 4,096 rows, so the writers format more than one block.
    mesh = revolve_mesh(make_archimedean(3, 2), 64, 70)
    assert len(mesh.vertices) > 4096
    path = tmp_path / "sphere.obj"
    write_obj(mesh, path)
    loop = "".join("v %.9g %.9g %.9g\n" % tuple(v) for v in mesh.vertices)
    loop += "".join("f %d %d %d\n" % tuple(t + 1) for t in mesh.triangles)
    assert path.read_text() == loop
    table = np.random.default_rng(4).standard_normal((9000, 3)) * 10.0 ** np.arange(-8, 19, 9)
    loop = "a,b,c\n" + "".join("%.17g,%.17g,%.17g\n" % tuple(r) for r in table)
    assert csv_text(["a", "b", "c"], table) == loop


def _percent_g17(table):
    """The CSV rows of ``table`` by Python's ``%``, the bytes the kernel must match."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ((row * len(table)) % tuple(table.ravel().tolist())).encode()


def _g17_cases():
    rng = np.random.default_rng(13)
    # Log-uniform magnitudes from 1e-8 to 1e18, both signs.
    logu = 10.0 ** rng.uniform(-8.0, 18.0, 600_000) * rng.choice([-1.0, 1.0], 600_000)
    # Eight neighbours on each side of every power of ten from 1e-6 to 1e17,
    # which holds the switches to exponent notation at 1e-4 and 1e17.
    near = []
    for p in 10.0 ** np.arange(-6, 18):
        for direction in (0.0, np.inf):
            x = p
            for _ in range(8):
                x = np.nextafter(x, direction)
                near.append(x)
        near.append(p)
    # Exact ties at 17 digits: M * 2^-j with M odd has the decimal value
    # M * 5^j / 10^j, which ends in 5; keep those with 18 digits.
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(2 ** 53, 10 ** 18 // 5 ** j)
        ties.append(np.ldexp((rng.integers(lo, hi, 16_000) | 1).astype(float), -j))
    ties = np.concatenate(ties)
    special = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               np.inf, -np.inf, np.nan, np.finfo(float).max, 1e-6, 1e17, 1e-4, 1e16]
    subnormal = np.ldexp(rng.integers(1, 2 ** 52, 1_000).astype(float), -1074)
    values = np.concatenate([logu, near, ties, special, subnormal, 1.0 / logu[:1000]])
    values = np.concatenate([values, -values])
    return values, ties


def test_g17_kernel_matches_percent_on_a_million_values():
    values, ties = _g17_cases()
    assert values.size >= 1_000_000
    for t in ties[::997]:  # exact decimal expansions with 18 digits, the last a 5
        digits = Decimal(float(t)).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    # No double is 10^-6, and the nearest lies below it, so the kernel's
    # range 10^-6 <= |v| < 10^17 reads |v| > 1e-6 in doubles.
    assert Decimal(1e-6) < Decimal("1e-6")
    table = values[: values.size // 4 * 4].reshape(-1, 4)
    for start in range(0, len(table), 4096):
        block = table[start:start + 4096]
        text, fallback = _g17_template(block)
        v = block.ravel()
        with np.errstate(invalid="ignore"):
            certified = (v == 0.0) | ((np.abs(v) > 1e-6) & (np.abs(v) < 1e17))
        assert np.array_equal(fallback, ~certified)
        assert text % tuple(v[fallback].tolist()) == _percent_g17(block)
    assert csv_text(["a", "b", "c", "d"], table[:9000]) == "a,b,c,d\n" + _percent_g17(
        table[:9000]).decode()


def _percent_rows(row, table):
    """``row % r`` for every row r of ``table``, the bytes the kernel must match."""
    return ((row * len(table)) % tuple(table.ravel().tolist())).encode()


def _g9_cases():
    rng = np.random.default_rng(17)
    # Log-uniform magnitudes from 1e-8 to 1e11, both signs.
    logu = 10.0 ** rng.uniform(-8.0, 11.0, 500_000) * rng.choice([-1.0, 1.0], 500_000)
    # Eight neighbours on each side of every power of ten from 1e-7 to 1e10,
    # which holds the switches to exponent notation at 1e-4 and 1e9, and
    # values that round up to the next power of ten at 9 digits.
    near = []
    for p in 10.0 ** np.arange(-7, 11):
        for direction in (0.0, np.inf):
            x = p
            for _ in range(8):
                x = np.nextafter(x, direction)
                near.append(x)
        near.append(p)
        near.extend(p * (1.0 - rng.uniform(0.0, 1e-9, 200)))
    # Exact ties at 9 digits: M * 2^-j with M odd has the decimal value
    # M * 5^j / 10^j, which ends in 5; keep those with 10 digits, and their
    # neighbours, which lie just off the tie.
    ties = []
    for j in range(1, 14):  # from 10^8 down to 10^-4
        lo, hi = -(-10 ** 9 // 5 ** j), 10 ** 10 // 5 ** j
        ties.append(np.ldexp((rng.integers(lo, hi, 12_000) | 1).astype(float), -j))
    ties = np.concatenate(ties)
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan, 1e-6,
               1e-4, 1e9, 999999999.5, 999999999.4999999, 0.9999999995, 0.99999999949999994]
    subnormal = np.ldexp(rng.integers(1, 2 ** 52, 1_000).astype(float), -1074)
    values = np.concatenate([logu, near, ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
                             special, subnormal])
    values = np.concatenate([values, -values])
    return values, ties


def test_g9_kernel_matches_percent_on_a_million_values():
    values, ties = _g9_cases()
    assert values.size >= 1_000_000
    for t in ties[::997]:  # exact decimal expansions with 10 digits, the last a 5
        digits = Decimal(float(t)).as_tuple().digits
        assert len(digits) == 10 and digits[-1] == 5
    table = values[: values.size // 3 * 3].reshape(-1, 3)
    for start in range(0, len(table), 4096):
        block = table[start:start + 4096]
        text, fallback = _g17_template(block, 9, b"v ", b" ")
        v = block.ravel()
        # 999999999.5 is a tie that rounds up to 10^9, which %.9g writes "1e+09".
        with np.errstate(invalid="ignore"):
            certified = (v == 0.0) | ((np.abs(v) > 1e-6) & (np.abs(v) < 999999999.5))
        assert np.array_equal(fallback, ~certified)
        assert text % tuple(v[fallback].tolist()) == _percent_rows("v %.9g %.9g %.9g\n", block)


def test_integer_fields_match_percent_d():
    limit = 10 ** 7  # the kernel writes seven digits
    edges = [0, 1, 9, 10, 9_999, 10_000, 99_999, 100_000, limit - 1, limit, limit + 1, -1,
             2 ** 62]
    rng = np.random.default_rng(3)
    values = np.concatenate([edges, rng.integers(0, 10 ** rng.integers(1, 9, 60_000)),
                             np.arange(0, 200_000)])
    table = values[: values.size // 3 * 3].reshape(-1, 3)
    for start in range(0, len(table), 4096):
        block = table[start:start + 4096]
        text, fallback = _g17_template(block, 9, b"f ", b" ")
        v = block.ravel()
        assert np.array_equal(fallback, (v < 0) | (v >= limit))
        assert text % tuple(v[fallback].tolist()) == _percent_rows("f %d %d %d\n", block)


def test_obj_byte_deterministic(tmp_path):
    mesh = revolve_mesh(make_archimedean(3, 2), 12, 12)
    p1 = tmp_path / "a.obj"
    p2 = tmp_path / "b.obj"
    write_obj(mesh, p1)
    write_obj(mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_profile_csv_round_trip(tmp_path):
    pts = profile_curve(make_scaling(3), 17)
    path = tmp_path / "profile.csv"
    write_profile_csv(pts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f"
    assert len(lines) == 18
    assert path.read_bytes() == csv_text(["x", "f"], pts).encode()
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, pts)  # 17 significant digits round-trip

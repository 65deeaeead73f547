"""Triangle meshes and profile curves for inspecting 3D realizations.

A surface of revolution for arrays in R^3 (1-dimensional base, circle
fibers) and a two-sheeted graph z = ±f(x'') over a 2-dimensional base,
stitched along the rim where f = 0; areas of closed meshes serve as an
independent oracle for the quadrature-based totals.

The layout is fixed, so exports are byte-identical across runs.  A ring
is N vertices at angles 2*pi*l/N.  ``revolve_mesh`` lists the first
pole, the rings at the interior axial stations, then the last pole;
``graph_slice_mesh`` lists the top centre, the top rings out to the rim,
the bottom centre, then the bottom rings without the rim, which both
sheets share.  Triangles come in the same order: the fan at each pole
or centre, the bands between consecutive rings.  A band from inner ring
a to outer ring d lists (a_l, a_l+1, d_l+1) and (a_l, d_l+1, d_l) for
each l; a fan around c lists (c, a_l+1, a_l).  The first pole and the
bottom sheet keep this winding; the last pole and the top sheet swap
the last two columns.  A mesh of negative signed volume is reversed.
"""

import math

import numpy as np

__all__ = [
    "Mesh",
    "profile_curve",
    "revolve_mesh",
    "graph_slice_mesh",
    "mesh_area",
    "write_obj",
    "csv_text",
    "write_profile_csv",
]


class Mesh:
    """Indexed triangle mesh in R^3."""

    def __init__(self, vertices, triangles, closed):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must be (v, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be (t, 3)")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle index out of range")
        self.vertices = vertices
        self.triangles = triangles
        self.closed = bool(closed)
        if self.closed and not self.is_watertight():
            raise ValueError("closed mesh fails the shared-edge check")

    def _edges(self):
        """Sorted undirected edges (u < v) and their counts, by one 1-D unique of u*V + v."""
        t = self.triangles
        pairs = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2).reshape(-1, 2), axis=1)
        v = len(self.vertices)
        keys, counts = np.unique(pairs[:, 0] * v + pairs[:, 1], return_counts=True)
        return np.stack([keys // v, keys % v], axis=1), counts

    def edge_counts(self):
        """Dictionary mapping undirected edges to incidence counts."""
        edges, counts = self._edges()
        return dict(zip(map(tuple, edges.tolist()), counts.tolist()))

    def is_watertight(self):
        return bool(np.all(self._edges()[1] == 2))

    def euler_characteristic(self):
        return len(self.vertices) - len(self._edges()[1]) + len(self.triangles)

    def signed_volume(self):
        """Divergence-theorem volume; positive for outward orientation."""
        p = self.vertices[self.triangles]
        return float(np.sum(np.linalg.det(p))) / 6.0


def mesh_area(mesh):
    """Total area: sum of triangle areas (degenerate triangles add 0)."""
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * float(np.sum(np.linalg.norm(cross, axis=1)))


def profile_curve(scaling, samples):
    """Points (x, f(x)) with Chebyshev x-spacing on [0, m_k].

    Endpoints are exactly (0, 0) and (m_k, 1); the clustering toward
    the ends resolves the infinite slope at x = 0.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    i = np.arange(samples)
    x = 0.5 * scaling.m_k * (1.0 - np.cos(math.pi * i / (samples - 1)))
    x[0], x[-1] = 0.0, scaling.m_k
    return np.stack([x, scaling.f(x)], axis=1)


def _band(inner, outer):
    """Triangles joining the (b, N) rings ``inner`` to the (b, N) rings ``outer``."""
    b, c = np.roll(inner, -1, axis=1), np.roll(outer, -1, axis=1)
    return np.stack([inner, b, c, inner, c, outer], axis=2).reshape(-1, 3)


def _fan(center, ring):
    """Triangles joining the vertex ``center`` to the N-vertex ``ring``."""
    return np.stack([np.full_like(ring, center), np.roll(ring, -1), ring], axis=1)


def _closed_mesh(vertices, triangles):
    """Checked closed mesh, reversed once if it comes out inside out."""
    mesh = Mesh(vertices, triangles, closed=True)
    if mesh.signed_volume() < 0.0:
        mesh.triangles = mesh.triangles[:, ::-1]
    return mesh


def revolve_mesh(h, res_axial=64, res_angular=64):
    """Closed surface of revolution for an array in R^3 (base dim 1).

    Vertices are rings of ``res_angular`` points at ``res_axial``-segment
    Chebyshev stations along the base interval, capped by pole fans at
    the two ends where the fiber radius vanishes.
    """
    if h.n != 3 or h.base_dim != 1:
        raise ValueError("revolve_mesh needs an array in R^3 over a 1-dim base")
    if res_axial < 2 or res_angular < 3:
        raise ValueError("resolution too small")
    (lo,), (hi,) = h.base.bounding_box()
    x = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(math.pi * np.arange(res_axial + 1) / res_axial)
    x[0], x[-1] = lo, hi
    radii = h.warping(x[:, None])[1:-1]
    theta = 2.0 * math.pi * np.arange(res_angular) / res_angular
    rings = np.stack([np.repeat(x[1:-1], res_angular), np.outer(radii, np.cos(theta)).ravel(),
                      np.outer(radii, np.sin(theta)).ravel()], axis=1)
    vertices = np.vstack([[x[0], 0.0, 0.0], rings, [x[-1], 0.0, 0.0]])

    idx = 1 + np.arange(len(rings)).reshape(res_axial - 1, res_angular)
    triangles = np.vstack([
        _fan(0, idx[0]),
        _band(idx[:-1], idx[1:]),
        _fan(len(vertices) - 1, idx[-1])[:, [0, 2, 1]],
    ])
    return _closed_mesh(vertices, triangles)


def graph_slice_mesh(h, res=48):
    """Closed two-sheeted graph z = ±f(x'') over a 2-dimensional base.

    The base is covered by a polar grid from an interior origin with
    rim radius from the base's boundary-ray distances; the two sheets
    share the rim ring, where f = 0.
    """
    if h.base_dim != 2:
        raise ValueError("graph_slice_mesh needs a 2-dimensional base")
    if res < 3:
        raise ValueError("resolution too small")
    lo, hi = h.base.bounding_box()
    origin = 0.5 * (lo + hi)
    if hasattr(h.base, "center"):
        origin = np.asarray(h.base.center, dtype=float)
    n_ang = 2 * res
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    rim = h.base.boundary_radius(origin, theta)
    # Chebyshev radial stations cluster toward the rim, where the slope diverges.
    shell = np.sin(0.5 * math.pi * np.arange(1, res + 1) / res)
    r = np.outer(shell, rim)
    xy = np.stack([origin[0] + (r * np.cos(theta)).ravel(),
                   origin[1] + (r * np.sin(theta)).ravel()], axis=1)
    f = np.concatenate([h.warping(np.vstack([origin, xy[:-n_ang]])), np.zeros(n_ang)])
    top = np.column_stack([np.vstack([origin, xy]), f])
    vertices = np.vstack([top, np.column_stack([top[:-n_ang, :2], -f[:-n_ang]])])

    top_rings = 1 + np.arange(res * n_ang).reshape(res, n_ang)
    bottom_rings = np.vstack([len(top) + top_rings[:-1], top_rings[-1:]])
    triangles = np.vstack([
        _fan(0, top_rings[0])[:, [0, 2, 1]],
        _band(top_rings[:-1], top_rings[1:])[:, [0, 2, 1]],
        _fan(len(top), bottom_rings[0]),
        _band(bottom_rings[:-1], bottom_rings[1:]),
    ])
    return _closed_mesh(vertices, triangles)


def _rows(row, table):
    """``row % r`` for each row r of ``table``; a ``%`` per 4,096 rows bounds the live numbers."""
    blocks = np.split(table, range(4096, len(table), 4096))
    return "".join((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def write_obj(mesh, path):
    """ASCII v/f records, 1-based indices, LF endings, 9 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_rows("v %.9g %.9g %.9g\n", mesh.vertices))
        fh.write(_rows("f %d %d %d\n", mesh.triangles + 1))


def csv_text(columns, table):
    """CSV text: a header of ``columns``, then ``table`` in 17-significant-digit floats."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + _rows(row, np.asarray(table, dtype=float))


def write_profile_csv(points, path):
    """Profile curve as CSV with header and 17-significant-digit floats."""
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(["x", "f"], points))

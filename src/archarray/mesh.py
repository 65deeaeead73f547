"""Triangle meshes and profile curves for inspecting 3D realizations.

Two mesh builders are provided: a surface of revolution for arrays in
R^3 (1-dimensional base, circle fibers), and a two-sheeted graph
z = ±f(x'') over a 2-dimensional base, stitched along the rim where
f = 0.  Vertex order is fixed by (ring index, angular index) so exports
are byte-identical across runs.  Areas of closed meshes serve as an
independent oracle for the quadrature-based totals.
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

    def edge_counts(self):
        """Dictionary mapping undirected edges to incidence counts."""
        counts = {}
        for a, b, c in self.triangles:
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def is_watertight(self):
        return all(c == 2 for c in self.edge_counts().values())

    def euler_characteristic(self):
        v = len(self.vertices)
        e = len(self.edge_counts())
        t = len(self.triangles)
        return v - e + t

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
    x[0] = 0.0
    x[-1] = scaling.m_k
    y = scaling.f(x)
    return np.stack([x, y], axis=1)


def _chebyshev_axis(lo, hi, segments):
    j = np.arange(segments + 1)
    x = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(math.pi * j / segments)
    x[0] = lo
    x[-1] = hi
    return x


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
    x = _chebyshev_axis(lo, hi, res_axial)
    radii = h.warping(x[:, None])
    theta = 2.0 * math.pi * np.arange(res_angular) / res_angular
    ct, st = np.cos(theta), np.sin(theta)

    verts = [np.array([x[0], 0.0, 0.0])]
    for j in range(1, res_axial):
        ring = np.stack(
            [np.full(res_angular, x[j]), radii[j] * ct, radii[j] * st], axis=1
        )
        verts.append(ring)
    verts.append(np.array([x[-1], 0.0, 0.0]))
    vertices = np.vstack([v if v.ndim == 2 else v[None, :] for v in verts])

    def ring_index(j, l):
        return 1 + (j - 1) * res_angular + (l % res_angular)

    tris = []
    for l in range(res_angular):
        tris.append((0, ring_index(1, l + 1), ring_index(1, l)))
    for j in range(1, res_axial - 1):
        for l in range(res_angular):
            a = ring_index(j, l)
            b = ring_index(j, l + 1)
            c = ring_index(j + 1, l + 1)
            d = ring_index(j + 1, l)
            tris.append((a, b, c))
            tris.append((a, c, d))
    last = len(vertices) - 1
    for l in range(res_angular):
        tris.append((last, ring_index(res_axial - 1, l), ring_index(res_axial - 1, l + 1)))
    mesh = Mesh(vertices, np.array(tris, dtype=np.int64), closed=True)
    if mesh.signed_volume() < 0.0:
        mesh = Mesh(vertices, mesh.triangles[:, ::-1], closed=True)
    return mesh


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
    # Chebyshev radial stations cluster toward the rim, where the
    # graph's slope diverges.
    i = np.arange(1, res + 1)
    shell = np.sin(0.5 * math.pi * i / res)

    rings = []
    for frac in shell:
        r = frac * rim
        rings.append(origin[None, :] + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))

    f_center = float(h.warping(origin))
    ring_f = []
    for idx, ring in enumerate(rings):
        if idx == len(rings) - 1:
            ring_f.append(np.zeros(n_ang))
        else:
            ring_f.append(h.warping(ring))

    # Vertex layout: top center, top rings (including rim), bottom
    # center, bottom interior rings (rim shared with top).
    verts = [np.array([origin[0], origin[1], f_center])]
    for ring, fv in zip(rings, ring_f):
        verts.append(np.stack([ring[:, 0], ring[:, 1], fv], axis=1))
    top_count = 1 + res * n_ang
    verts.append(np.array([origin[0], origin[1], -f_center]))
    for ring, fv in zip(rings[:-1], ring_f[:-1]):
        verts.append(np.stack([ring[:, 0], ring[:, 1], -fv], axis=1))
    vertices = np.vstack([v if v.ndim == 2 else v[None, :] for v in verts])

    def top_index(i_ring, l):
        return 1 + i_ring * n_ang + (l % n_ang)

    def bottom_index(i_ring, l):
        if i_ring == res - 1:
            return top_index(i_ring, l)
        return top_count + 1 + i_ring * n_ang + (l % n_ang)

    tris = []
    for l in range(n_ang):
        tris.append((0, top_index(0, l), top_index(0, l + 1)))
    for i_ring in range(res - 1):
        for l in range(n_ang):
            a = top_index(i_ring, l)
            b = top_index(i_ring, l + 1)
            c = top_index(i_ring + 1, l + 1)
            d = top_index(i_ring + 1, l)
            tris.append((a, c, b))
            tris.append((a, d, c))
    bc = top_count
    for l in range(n_ang):
        tris.append((bc, bottom_index(0, l + 1), bottom_index(0, l)))
    for i_ring in range(res - 1):
        for l in range(n_ang):
            a = bottom_index(i_ring, l)
            b = bottom_index(i_ring, l + 1)
            c = bottom_index(i_ring + 1, l + 1)
            d = bottom_index(i_ring + 1, l)
            tris.append((a, b, c))
            tris.append((a, c, d))
    mesh = Mesh(vertices, np.array(tris, dtype=np.int64), closed=True)
    if mesh.signed_volume() < 0.0:
        mesh = Mesh(vertices, mesh.triangles[:, ::-1], closed=True)
    return mesh


def write_obj(mesh, path):
    """ASCII v/f records, 1-based indices, LF endings, 9 significant digits."""
    with open(path, "w", newline="\n") as fh:
        for v in mesh.vertices:
            fh.write("v %.9g %.9g %.9g\n" % (v[0], v[1], v[2]))
        for t in mesh.triangles:
            fh.write("f %d %d %d\n" % (t[0] + 1, t[1] + 1, t[2] + 1))


def write_profile_csv(points, path):
    """Profile curve as CSV with header and 17-significant-digit floats."""
    with open(path, "w", newline="\n") as fh:
        fh.write("x,f\n")
        for x, y in points:
            fh.write("%.17g,%.17g\n" % (x, y))

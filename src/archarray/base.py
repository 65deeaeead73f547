"""Convex base domains with exact distance-to-boundary fields.

A base domain supplies the eikonal data a warped product needs: the
interior distance to the boundary (omega), its unit gradient, and the
distance to the singular set Sigma where that gradient is undefined
(the center of a ball, the medial axis of a polygon or ellipse).
Gradients are constructed from nearest-feature geometry, never by
numerical differencing, so they have unit norm to machine precision.

Points are numpy arrays; every query accepts a single point of shape
(dim,) or a batch of shape (npoints, dim) and returns a scalar or a
vector to match.
"""

import math
import warnings

import numpy as np

from .special import ball_volume

__all__ = [
    "SingularRegionError",
    "BaseDomain",
    "Ball",
    "Ellipse",
    "ConvexPolygon",
    "regular_polygon",
    "polygon_from_csv",
]

# Default exclusion half-width around the singular set, as a fraction of
# the inradius.
SINGULAR_BAND_FRACTION = 1e-3


class SingularRegionError(ValueError):
    """Raised when a gradient is requested inside the singular band."""


def _points(x, dim):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ValueError(f"expected a point of dimension {dim}, got shape {arr.shape}")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise ValueError(f"expected points of shape (n, {dim}), got {arr.shape}")


def _scalar_out(values, single):
    return float(values[0]) if single else values


def _vector_out(values, single):
    return values[0] if single else values


# A reduction of fewer terms than this adds them in index order; numpy's
# np.add.reduce switches to pairwise partial sums from 8 terms on.
_IN_ORDER_TERMS = 8


def squared_distance(pts, center):
    """Squared distance of each point of ``pts`` (..., dim) to ``center``.

    The squares are added in order 0, 1, ..., dim - 1, one whole
    coordinate column at a time, which is the order
    ``np.linalg.norm(..., axis=-1)`` sums a row in, so the square root
    equals the norm bit for bit.  From ``_IN_ORDER_TERMS`` coordinates on,
    the rows are reduced as the norm reduces them.
    """
    dim = len(center)
    if dim >= _IN_ORDER_TERMS:
        d = pts - center
        return np.add.reduce(d * d, axis=-1)
    total = pts[..., 0] - center[0]
    total *= total
    for j in range(1, dim):
        term = pts[..., j] - center[j]
        term *= term
        total += term
    return total


def to_box(u, lo, hi):
    """Map unit-cube draws ``u`` (npoints, dim) onto the box [lo, hi] in
    place, one coordinate column at a time; the result is lo + u * (hi - lo)
    bit for bit.  Returns ``u``."""
    width = hi - lo
    for j in range(u.shape[1]):
        u[:, j] *= width[j]
        u[:, j] += lo[j]
    return u


def box_corners(lo, hi):
    """The 2^dim corners of the axis box [lo, hi], one per row; a batch
    of boxes, ``lo`` and ``hi`` of shape (m, dim), gives (m, 2^dim, dim)."""
    dim = lo.shape[-1]
    bits = np.arange(2 ** dim)[:, None] >> np.arange(dim)[None, :] & 1
    return np.where(bits == 1, hi[..., None, :], lo[..., None, :])


class BaseDomain:
    """Common interface for the supported convex base shapes."""

    dim = None

    def __init__(self, singular_band=None):
        if singular_band is None:
            singular_band = SINGULAR_BAND_FRACTION * self.inradius()
        if singular_band < 0.0:
            raise ValueError("singular_band must be nonnegative")
        self.singular_band = float(singular_band)

    # Subclasses implement: _omega, _signed, _gradient,
    # _singular_distance, volume, inradius, bounding_box, describe.
    # They may override inside_mask and misses_box with exact geometric
    # tests, which give quadrature and sampling their fast paths.

    def _require_inside(self, pts, what):
        sd = self._signed(pts)
        if np.any(sd < -1e-12 * max(1.0, self.inradius())):
            raise ValueError(f"{what} requires points inside the domain")

    def _require_regular(self, pts):
        w = self._omega(pts)
        if np.any(w <= 0.0):
            raise ValueError("gradient undefined on the boundary")
        if np.any(self._singular_distance(pts) < self.singular_band):
            raise SingularRegionError(
                "gradient requested within the singular band of the medial set"
            )

    def contains(self, x):
        pts, single = _points(x, self.dim)
        inside = self._signed(pts) >= -1e-12 * max(1.0, self.inradius())
        return bool(inside[0]) if single else inside

    def inside_mask(self, pts):
        """Inside mask of a (npoints, dim) batch, without the tolerance
        of :meth:`contains` where a subclass has an exact test."""
        return self.contains(pts)

    def misses_box(self, lo, hi):
        """True only if the axis box [lo, hi] provably misses the domain;
        a batch of boxes, (m, dim) each, gets one answer per box."""
        return np.zeros(np.shape(lo)[:-1], dtype=bool)

    def distance_to_boundary(self, x):
        """Interior distance omega(x) to the domain boundary."""
        pts, single = _points(x, self.dim)
        self._require_inside(pts, "distance_to_boundary")
        return _scalar_out(np.maximum(self._omega(pts), 0.0), single)

    def signed_distance(self, x):
        """Distance to the boundary, positive inside and negative outside."""
        pts, single = _points(x, self.dim)
        return _scalar_out(self._signed(pts), single)

    def omega_gradient(self, x):
        """Unit gradient of omega: points away from the nearest boundary feature."""
        pts, single = _points(x, self.dim)
        self._require_inside(pts, "omega_gradient")
        self._require_regular(pts)
        return _vector_out(self._gradient(pts), single)

    def singular_set_distance(self, x):
        """Distance to the set where omega is not differentiable."""
        pts, single = _points(x, self.dim)
        return _scalar_out(self._singular_distance(pts), single)

    def bounding_box(self):
        raise NotImplementedError

    def boundary_radius(self, origin, theta):
        """Distance from an interior origin to the boundary along direction
        (cos theta, sin theta); two-dimensional domains only."""
        raise NotImplementedError


class Ball(BaseDomain):
    """Solid ball of any dimension >= 1."""

    def __init__(self, center, radius, singular_band=None):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.ndim != 1 or center.size < 1:
            raise ValueError("center must be a vector")
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        self.center = center
        self.radius = float(radius)
        self.dim = center.size
        super().__init__(singular_band)

    def _rho(self, pts):
        return np.sqrt(squared_distance(pts, self.center))

    def _omega(self, pts):
        return self.radius - self._rho(pts)

    def _signed(self, pts):
        return self.radius - self._rho(pts)

    def _gradient(self, pts):
        d = pts - self.center
        return -d / np.linalg.norm(d, axis=1, keepdims=True)

    def _singular_distance(self, pts):
        return self._rho(pts)

    def inside_mask(self, pts):
        return self._rho(pts) <= self.radius

    def misses_box(self, lo, hi):
        # The box point nearest the centre is the centre clipped to the box.
        return squared_distance(np.clip(self.center, lo, hi), self.center) > self.radius ** 2

    def volume(self):
        return ball_volume(self.dim, self.radius)

    def inradius(self):
        return self.radius

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def boundary_radius(self, origin, theta):
        if self.dim != 2:
            raise NotImplementedError("boundary_radius is two-dimensional only")
        origin = np.asarray(origin, dtype=float)
        theta = np.asarray(theta, dtype=float)
        d = origin - self.center
        # Positive root of |d + t u|^2 = r^2 for each direction u.
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        b = u @ d
        disc = b * b - (d @ d - self.radius ** 2)
        return -b + np.sqrt(disc)

    def describe(self):
        return {
            "shape": "ball",
            "center": [float(c) for c in self.center],
            "radius": self.radius,
        }


class Ellipse(BaseDomain):
    """Axis-aligned solid ellipse in the plane."""

    _SCAN = 129
    _TOL = 1e-12
    _NEWTON_CAP = 80

    def __init__(self, center, semi_axes, singular_band=None):
        center = np.asarray(center, dtype=float)
        semi_axes = np.asarray(semi_axes, dtype=float)
        if center.shape != (2,) or semi_axes.shape != (2,):
            raise ValueError("ellipse center and semi_axes must be 2-vectors")
        if not np.all(semi_axes > 0.0):
            raise ValueError("semi-axes must be positive")
        self.center = center
        self.semi_axes = semi_axes
        self.dim = 2
        super().__init__(singular_band)

    def _nearest_boundary(self, pts):
        """Nearest boundary point for each query point.

        Works in the folded first quadrant: scan the squared distance on
        a parameter grid, then polish the stationarity condition with a
        bracketed Newton iteration.  A point leaves the iteration once its
        step falls below ``_TOL``, so its result does not depend on the
        batch; points still moving at ``_NEWTON_CAP`` raise a warning.
        """
        a, b = self.semi_axes
        rel = pts - self.center
        sx = np.where(rel[:, 0] < 0.0, -1.0, 1.0)
        sy = np.where(rel[:, 1] < 0.0, -1.0, 1.0)
        px = np.abs(rel[:, 0])
        py = np.abs(rel[:, 1])

        grid = np.linspace(0.0, 0.5 * math.pi, self._SCAN)
        gx = a * np.cos(grid)
        gy = b * np.sin(grid)
        d2 = (px[:, None] - gx[None, :]) ** 2 + (py[:, None] - gy[None, :]) ** 2
        best = np.argmin(d2, axis=1)
        lo = grid[np.maximum(best - 1, 0)]
        hi = grid[np.minimum(best + 1, self._SCAN - 1)]
        th = grid[best]

        def stat(t, px, py):
            return (b * b - a * a) * np.sin(t) * np.cos(t) + a * px * np.sin(t) \
                - b * py * np.cos(t)

        s_lo = stat(lo, px, py)
        out = np.empty_like(th)
        act = np.arange(len(pts))
        for _ in range(self._NEWTON_CAP):
            if not act.size:
                break
            val = stat(th, px, py)
            neg = (val < 0.0) == (s_lo < 0.0)
            lo = np.where(neg, th, lo)
            s_lo = np.where(neg, val, s_lo)
            hi = np.where(neg, hi, th)
            dval = (b * b - a * a) * np.cos(2.0 * th) + a * px * np.cos(th) \
                + b * py * np.sin(th)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = val / dval
            th_new = th - step
            bad = ~np.isfinite(th_new) | (th_new < lo) | (th_new > hi)
            th_new = np.where(bad, 0.5 * (lo + hi), th_new)
            done = np.abs(th_new - th) < self._TOL
            out[act[done]] = th_new[done]
            keep = ~done
            act, px, py, th, lo, hi, s_lo = (
                v[keep] for v in (act, px, py, th_new, lo, hi, s_lo))
        if act.size:
            warnings.warn(
                f"ellipse nearest-point search left {act.size} of "
                f"{len(pts)} points unconverged after {self._NEWTON_CAP} Newton steps",
                RuntimeWarning, stacklevel=2,
            )
            out[act] = th

        nearest = np.stack([sx * a * np.cos(out), sy * b * np.sin(out)], axis=1)
        return nearest + self.center

    def _level(self, pts):
        rel = (pts - self.center) / self.semi_axes
        return np.sum(rel * rel, axis=1)

    def inside_mask(self, pts):
        return self._level(pts) <= 1.0

    def misses_box(self, lo, hi):
        s_lo = (lo - self.center) / self.semi_axes
        s_hi = (hi - self.center) / self.semi_axes
        gap = np.maximum(np.maximum(np.minimum(s_lo, s_hi), -np.maximum(s_lo, s_hi)), 0.0)
        return np.sum(gap * gap, axis=-1) > 1.0

    def _omega(self, pts):
        return self._signed(pts)

    def _signed(self, pts):
        near = self._nearest_boundary(pts)
        dist = np.linalg.norm(pts - near, axis=1)
        return np.where(self._level(pts) <= 1.0, dist, -dist)

    def _gradient(self, pts):
        near = self._nearest_boundary(pts)
        d = pts - near
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def _medial_segment(self):
        a, b = self.semi_axes
        if a >= b:
            half = (a * a - b * b) / a
            end = np.array([half, 0.0])
        else:
            half = (b * b - a * a) / b
            end = np.array([0.0, half])
        return self.center - end, self.center + end

    def _singular_distance(self, pts):
        lo, hi = self._medial_segment()
        return _segment_distance(pts, lo[None, :], hi[None, :])[:, 0]

    def volume(self):
        return math.pi * self.semi_axes[0] * self.semi_axes[1]

    def inradius(self):
        return float(np.min(self.semi_axes))

    def bounding_box(self):
        return self.center - self.semi_axes, self.center + self.semi_axes

    def boundary_radius(self, origin, theta):
        origin = np.asarray(origin, dtype=float)
        theta = np.asarray(theta, dtype=float)
        # Scale onto the unit disk; the ray stays a ray.
        d = (origin - self.center) / self.semi_axes
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1) / self.semi_axes
        uu = np.sum(u * u, axis=-1)
        bq = u @ d
        disc = bq * bq - uu * (d @ d - 1.0)
        return (-bq + np.sqrt(disc)) / uu

    def describe(self):
        return {
            "shape": "ellipse",
            "center": [float(c) for c in self.center],
            "semi_axes": [float(s) for s in self.semi_axes],
        }


def _segment_distance(pts, seg_a, seg_b):
    """Distances from points (n, 2) to segments (s, 2): result (n, s)."""
    e = seg_b - seg_a
    ee = np.sum(e * e, axis=1)
    ee = np.where(ee == 0.0, 1.0, ee)
    d = pts[:, None, :] - seg_a[None, :, :]
    t = np.clip(np.einsum("nsd,sd->ns", d, e) / ee, 0.0, 1.0)
    closest = seg_a[None, :, :] + t[:, :, None] * e[None, :, :]
    return np.linalg.norm(pts[:, None, :] - closest, axis=2)


class ConvexPolygon(BaseDomain):
    """Strictly convex polygon with counterclockwise vertices.

    The medial axis (equal to the straight skeleton for convex input) is
    precomputed by shrinking the edge lines inward at unit speed and
    recording the paths swept by the wavefront vertices.
    """

    def __init__(self, vertices, singular_band=None):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("vertices must be an (n, 2) array with n >= 3")
        if verts.shape[0] > 64:
            raise ValueError("polygons are limited to 64 vertices")
        self.vertices = verts
        area2 = _shoelace(verts)
        if area2 <= 0.0:
            raise ValueError("vertices must be in counterclockwise order")
        scale = float(np.max(np.ptp(verts, axis=0)))
        nxt = np.roll(verts, -1, axis=0)
        prv = np.roll(verts, 1, axis=0)
        u = verts - prv
        v = nxt - verts
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        if np.any(cross <= 1e-12 * scale * scale):
            raise ValueError("polygon must be strictly convex with no collinear runs")

        edges = nxt - verts
        lengths = np.linalg.norm(edges, axis=1)
        self._normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / lengths[:, None]
        self._offsets = np.einsum("ed,ed->e", self._normals, verts)
        self._area = 0.5 * area2
        self._skeleton, self._inradius = _straight_skeleton(
            self._normals, self._offsets, verts, scale
        )
        self.dim = 2
        super().__init__(singular_band)

    def _edge_margins(self, pts):
        return pts @ self._normals.T - self._offsets[None, :]

    def _omega(self, pts):
        return np.min(self._edge_margins(pts), axis=1)

    def inside_mask(self, pts):
        return self._omega(pts) >= 0.0

    def misses_box(self, lo, hi):
        margins = self._edge_margins(box_corners(lo, hi))
        return np.any(np.all(margins < 0.0, axis=-2), axis=-1)

    def _signed(self, pts):
        margins = self._edge_margins(pts)
        inner = np.min(margins, axis=1)
        out = inner < 0.0
        if np.any(out):
            seg_a = self.vertices
            seg_b = np.roll(self.vertices, -1, axis=0)
            d = np.min(_segment_distance(pts[out], seg_a, seg_b), axis=1)
            inner = inner.copy()
            inner[out] = -d
        return inner

    def _gradient(self, pts):
        nearest = np.argmin(self._edge_margins(pts), axis=1)
        return self._normals[nearest]

    def _singular_distance(self, pts):
        return np.min(
            _segment_distance(pts, self._skeleton[:, 0], self._skeleton[:, 1]),
            axis=1,
        )

    def medial_axis(self):
        """Medial-axis segments as an (s, 2, 2) array of endpoint pairs."""
        return self._skeleton.copy()

    def volume(self):
        return self._area

    def inradius(self):
        return self._inradius

    def bounding_box(self):
        return np.min(self.vertices, axis=0), np.max(self.vertices, axis=0)

    def boundary_radius(self, origin, theta):
        origin = np.asarray(origin, dtype=float)
        theta_arr = np.asarray(theta, dtype=float)
        scalar = theta_arr.ndim == 0
        theta_arr = np.atleast_1d(theta_arr)
        u = np.stack([np.cos(theta_arr), np.sin(theta_arr)], axis=-1)
        num = self._offsets[None, :] - origin @ self._normals.T
        den = u @ self._normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = num / den
        t = np.where(den < -1e-15, t, np.inf)
        out = np.min(t, axis=1)
        return float(out[0]) if scalar else out

    def describe(self):
        return {
            "shape": "convex_polygon",
            "vertices": [[float(a), float(b)] for a, b in self.vertices],
        }


def _shoelace(verts):
    x = verts[:, 0]
    y = verts[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _line_point(ni, oi, nj, oj):
    return np.linalg.solve(np.stack([ni, nj]), np.array([oi, oj]))


def _straight_skeleton(normals, offsets, verts0, scale):
    """Medial-axis segments and inradius of a strictly convex polygon.

    The boundary lines move inward at unit speed; wavefront vertices
    trace straight segments, and an edge dies when its two endpoints
    meet.  Events are processed in simultaneous batches; the wavefront
    is rebuilt from the surviving lines after each batch.  The final
    wavefront of a convex polygon is a point or a segment, reached at
    time equal to the inradius.
    """
    eps_len = 1e-12 * scale
    idx = list(range(len(normals)))
    t = 0.0
    segments = []

    def vertex(ring, a, tt):
        i = ring[a - 1]
        j = ring[a]
        return _line_point(normals[i], offsets[i] + tt, normals[j], offsets[j] + tt)

    def ring_parallel(ring):
        for a in range(len(ring)):
            ni = normals[ring[a - 1]]
            nj = normals[ring[a]]
            if abs(ni[0] * nj[1] - ni[1] * nj[0]) < 1e-12:
                return True
        return False

    births = [verts0[a].copy() for a in range(len(idx))]
    junctions = []

    while len(idx) >= 3 and not ring_parallel(idx):
        count = len(idx)
        verts = [vertex(idx, a, t) for a in range(count)]
        speeds = []
        for a in range(count):
            i = idx[a - 1]
            j = idx[a]
            speeds.append(_line_point(normals[i], 1.0, normals[j], 1.0))
        dts = []
        for a in range(count):
            pa = verts[a]
            pb = verts[(a + 1) % count]
            e = pb - pa
            length = float(np.linalg.norm(e))
            if length <= eps_len:
                dts.append(0.0)
                continue
            ehat = e / length
            rate = float((speeds[(a + 1) % count] - speeds[a]) @ ehat)
            dts.append(length / -rate if rate < -1e-15 else math.inf)
        dt_min = min(dts)
        if not math.isfinite(dt_min):
            raise RuntimeError("wavefront failed to collapse; polygon degenerate?")
        t += dt_min
        positions = [vertex(idx, a, t) for a in range(count)]
        for a in range(count):
            if np.linalg.norm(positions[a] - births[a]) > eps_len:
                segments.append((births[a], positions[a]))
        eps_t = 1e-9 * max(scale, t)
        dead = [a for a in range(count) if dts[a] <= dt_min + eps_t]
        junctions = []
        for a in dead:
            junctions.append(positions[a])
            junctions.append(positions[(a + 1) % count])
        for a in sorted(dead, reverse=True):
            del idx[a]
        if len(idx) >= 3 and not ring_parallel(idx):
            births = [vertex(idx, a, t) for a in range(len(idx))]

    # Final degenerate wavefront: connect the distinct junction points.
    clusters = []
    for p in junctions:
        for c in clusters:
            if np.linalg.norm(p - c) < 1e-9 * max(scale, 1.0):
                break
        else:
            clusters.append(p)
    if len(clusters) >= 2:
        pts = np.array(clusters)
        spread = pts - pts.mean(axis=0)
        u, _, vt = np.linalg.svd(spread, full_matrices=False)
        order = np.argsort(spread @ vt[0])
        for a, b in zip(order[:-1], order[1:]):
            segments.append((pts[a], pts[b]))

    if not segments:
        # Triangle-like immediate collapse to a single point.
        segments = [(verts0[a], junctions[0]) for a in range(len(verts0))]

    seg_arr = np.array([[p, q] for p, q in segments])
    return seg_arr, t


def regular_polygon(sides, *, circumradius=None, inradius=None, center=(0.0, 0.0)):
    """Regular convex polygon, specified by circumradius or inradius."""
    if (circumradius is None) == (inradius is None):
        raise ValueError("give exactly one of circumradius or inradius")
    if circumradius is None:
        circumradius = inradius / math.cos(math.pi / sides)
    angles = 2.0 * math.pi * np.arange(sides) / sides
    verts = np.stack(
        [np.cos(angles), np.sin(angles)], axis=1
    ) * circumradius + np.asarray(center, dtype=float)
    return ConvexPolygon(verts)


def polygon_from_csv(path):
    """Load a convex polygon from a CSV file of x,y rows (counterclockwise).

    A single leading header row is tolerated; validation is the same as
    for direct construction.
    """
    try:
        verts = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError:
        verts = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, skiprows=1)
    return ConvexPolygon(verts)


def base_from_description(desc):
    """Rebuild a base domain from its ``describe()`` dictionary."""
    shape = desc.get("shape")
    if shape == "ball":
        return Ball(np.asarray(desc["center"], dtype=float), desc["radius"])
    if shape == "ellipse":
        return Ellipse(
            np.asarray(desc["center"], dtype=float),
            np.asarray(desc["semi_axes"], dtype=float),
        )
    if shape == "convex_polygon":
        return ConvexPolygon(np.asarray(desc["vertices"], dtype=float))
    raise ValueError(f"unknown base shape {shape!r}")

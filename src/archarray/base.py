"""Convex base domains with exact distance-to-boundary fields.

A base domain supplies the eikonal data a warped product needs: the
interior distance to the boundary (omega), its unit gradient, and the
distance to the singular set Sigma where that gradient is undefined
(the center of a ball, the medial axis of a polygon or ellipse).
Gradients are constructed from nearest-feature geometry, never by
numerical differencing, so they have unit norm to machine precision.
The ellipse finds its nearest boundary point with one bracket-free
Newton iteration per point on the Lagrange multiplier of the distance
(Eberly, 2013) and takes its gradient from the boundary normal there.
The polygon builds its medial axis once, by collapsing the earliest
shrinking edge of the inward-moving wavefront one step at a time.
Each interior query evaluates the signed distance once and reads the
inside check, the boundary check and omega from it.

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

# Exclusion half-width around the singular set, as a fraction of the
# inradius.
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


def row_norm(v):
    """Euclidean norm of each row of ``v``, ``np.linalg.norm(v, axis=-1)``
    bit for bit (see ``squared_distance``)."""
    return np.sqrt(squared_distance(v, np.zeros(v.shape[-1])))


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


def box_reach(below, above):
    """Squared distances from the origin to the nearest and the farthest
    point of each axis box [below, above].  An axis adds max(below, -above,
    0)^2 to the near sum and max(below^2, above^2) to the far sum, and the
    columns are added in ``squared_distance``'s order.  The far point is a
    corner, and a rounded sum of squares is monotone in each term, so no
    corner's sum exceeds the far sum."""
    near = np.maximum(np.maximum(below, -above), 0.0)
    return _column_sum(near * near), _column_sum(np.maximum(below * below, above * above))


def _column_sum(terms):
    """Sum over the last axis, in ``squared_distance``'s order."""
    if terms.shape[-1] >= _IN_ORDER_TERMS:
        return np.add.reduce(terms, axis=-1)
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = total + terms[..., j]
    return total


def state_of(miss, held):
    """The state of each box: 0 where it misses a set, 2 where the set
    holds it, 1 where neither is known."""
    return np.where(miss, 0, held + 1)


class BaseDomain:
    """Common interface for the supported convex base shapes."""

    dim = None

    def __init__(self):
        self.singular_band = float(SINGULAR_BAND_FRACTION * self.inradius())

    # Subclasses implement: _signed, _gradient, _singular_distance,
    # volume, inradius, bounding_box, describe.  They may override
    # inside_mask and box_state with exact geometric tests, which give
    # quadrature and sampling their fast paths.

    def _interior_omega(self, pts, what):
        """omega of points inside the domain, from one _signed call."""
        sd = self._signed(pts)
        if np.any(sd < -1e-12 * max(1.0, self.inradius())):
            raise ValueError(f"{what} requires points inside the domain")
        return np.maximum(sd, 0.0)

    def contains(self, x):
        pts, single = _points(x, self.dim)
        inside = self._signed(pts) >= -1e-12 * max(1.0, self.inradius())
        return bool(inside[0]) if single else inside

    def inside_mask(self, pts):
        """Inside mask of a (npoints, dim) batch, without the tolerance
        of :meth:`contains` where a subclass has an exact test."""
        return self.contains(pts)

    def box_state(self, lo, hi):
        """0 only if the axis box [lo, hi] provably misses the domain, 2 if
        ``inside_mask`` holds at every corner, else 1; a batch of boxes,
        (m, dim) each, gets one state per box.  By default no box is
        known to miss."""
        corners = box_corners(lo, hi)
        inside = self.inside_mask(corners.reshape(-1, self.dim))
        return np.all(inside.reshape(corners.shape[:-1]), axis=-1) + 1

    def distance_to_boundary(self, x):
        """Interior distance omega(x) to the domain boundary."""
        pts, single = _points(x, self.dim)
        return _scalar_out(self._interior_omega(pts, "distance_to_boundary"), single)

    def signed_distance(self, x):
        """Distance to the boundary, positive inside and negative outside."""
        pts, single = _points(x, self.dim)
        return _scalar_out(self._signed(pts), single)

    def omega_gradient(self, x):
        """Unit gradient of omega: points away from the nearest boundary feature."""
        pts, single = _points(x, self.dim)
        if np.any(self._interior_omega(pts, "omega_gradient") <= 0.0):
            raise ValueError("gradient undefined on the boundary")
        if np.any(self._singular_distance(pts) < self.singular_band):
            raise SingularRegionError(
                "gradient requested within the singular band of the medial set"
            )
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

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.ndim != 1 or center.size < 1:
            raise ValueError("center must be a vector")
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        self.center = center
        self.radius = float(radius)
        self.dim = center.size
        super().__init__()

    def _rho(self, pts):
        return np.sqrt(squared_distance(pts, self.center))

    def _signed(self, pts):
        return self.radius - self._rho(pts)

    def _gradient(self, pts):
        d = pts - self.center
        return -d / row_norm(d)[:, None]

    def _singular_distance(self, pts):
        return self._rho(pts)

    def inside_mask(self, pts):
        return self._rho(pts) <= self.radius

    def box_state(self, lo, hi):
        near, far = box_reach(lo - self.center, hi - self.center)
        return state_of(near > self.radius ** 2, np.sqrt(far) <= self.radius)

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
    """Axis-aligned solid ellipse in the plane.

    Nearest points follow D. Eberly, "Distance from a Point to an
    Ellipse, an Ellipsoid, or a Hyperellipsoid" (Geometric Tools, 2013).
    """

    _NEWTON_CAP = 80

    def __init__(self, center, semi_axes):
        center = np.asarray(center, dtype=float)
        semi_axes = np.asarray(semi_axes, dtype=float)
        if center.shape != (2,) or semi_axes.shape != (2,):
            raise ValueError("ellipse center and semi_axes must be 2-vectors")
        if not np.all(semi_axes > 0.0):
            raise ValueError("semi-axes must be positive")
        self.center = center
        self.semi_axes = semi_axes
        self.dim = 2
        super().__init__()

    def _nearest_boundary(self, pts):
        """Nearest boundary point for each query point.

        Works in the folded first quadrant (x, y) >= 0 with the long
        semi-axis a first and c = a^2 - b^2.  Off the long axis the nearest
        point is (a^2 x / (u + c), b^2 y / u), where u > 0 is the root of
        F(u) = p^2 + q^2 - 1, p = a x / (u + c), q = b y / u.  F is convex
        and decreasing, so Newton's method rises to the root with no
        bracket from the largest of three points where F >= 0: b y, a x - c,
        and t sqrt(t / max(t, c - a x)), t^3 = c (b y)^2 / 4, near the
        cube-root small root at the end of the medial segment.  F takes the
        larger of p and q through p - 1 = (a x - c - u) / (u + c) or
        q - 1 = (b y - u) / u, so it keeps its digits where that one rounds
        to 1.  A point leaves once a step no longer raises u by more than
        2e-16 u, so its result does not depend on the batch; points still
        rising at ``_NEWTON_CAP`` raise a warning.  On the long axis the
        nearest point has a closed form.  Each point goes back onto the
        ellipse through its angle, so an error left in u moves it along the
        boundary, which the distance feels only to second order.
        """
        i, j = (0, 1) if self.semi_axes[0] >= self.semi_axes[1] else (1, 0)
        a, b = self.semi_axes[i], self.semi_axes[j]
        c = a * a - b * b
        rel = pts - self.center
        ax = a * np.abs(rel[:, i])
        by = b * np.abs(rel[:, j])
        theta = np.zeros(len(pts))
        # A zero or subnormal b y counts as on the axis: the distance moves by < y.
        tiny = np.finfo(float).tiny
        axis = by < tiny
        if c > 0.0:
            theta[axis] = np.arccos(np.minimum(ax[axis], c) / c)
        d, t = ax - c, np.cbrt(c / 4.0) * np.cbrt(by) ** 2
        u = np.maximum(np.maximum(by, d), t * np.sqrt(t / np.maximum(np.maximum(t, -d), tiny)))
        act = np.flatnonzero(~axis)
        root, u = np.empty_like(by), u[act]
        for _ in range(self._NEWTON_CAP):
            if not act.size:
                break
            p, q = ax[act] / (u + c), by[act] / u
            f = np.where(p > q, q * q + (p + 1.0) * (d[act] - u) / (u + c),
                         p * p + (q + 1.0) * (by[act] - u) / u)
            # -F / F'(u), multiplied through by u so that a tiny u cannot overflow.
            step = u * f / (2.0 * (p * p * u / (u + c) + q * q))
            done = ~(step > 2e-16 * u)
            u = u + step
            root[act[done]] = u[done]
            act, u = act[~done], u[~done]
        if act.size:
            warnings.warn(
                f"ellipse nearest-point search left {act.size} of "
                f"{len(pts)} points unconverged after {self._NEWTON_CAP} Newton steps",
                RuntimeWarning, stacklevel=2,
            )
            root[act] = u
        live = ~axis
        theta[live] = np.arctan2(by[live] / root[live], ax[live] / (root[live] + c))
        near = np.empty_like(rel)
        near[:, i] = np.copysign(a * np.cos(theta), rel[:, i])
        near[:, j] = np.copysign(b * np.sin(theta), rel[:, j])
        return near + self.center

    def _level(self, pts):
        rel = (pts - self.center) / self.semi_axes
        return np.sum(rel * rel, axis=1)

    def inside_mask(self, pts):
        return self._level(pts) <= 1.0

    def box_state(self, lo, hi):
        near, far = box_reach((lo - self.center) / self.semi_axes,
                              (hi - self.center) / self.semi_axes)
        return state_of(near > 1.0, far <= 1.0)

    def _signed(self, pts):
        near = self._nearest_boundary(pts)
        dist = np.linalg.norm(pts - near, axis=1)
        return np.where(self._level(pts) <= 1.0, dist, -dist)

    def _gradient(self, pts):
        # The inward normal at the nearest boundary point.
        normal = (self.center - self._nearest_boundary(pts)) / self.semi_axes ** 2
        return normal / np.linalg.norm(normal, axis=1, keepdims=True)

    def _medial_segment(self):
        a, b = self.semi_axes
        end = np.zeros(2)
        end[int(b > a)] = abs(a * a - b * b) / max(a, b)
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
    precomputed from edge collapses: the edge lines move inward at unit
    speed, and each step drops the edge whose line meets both neighbours'
    first, joining its two vertex paths at that point, until the last
    three lines meet at the incentre.  An n-gon gives 2n - 3 segments
    unless events coincide.
    """

    def __init__(self, vertices):
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
        super().__init__()

    def _edge_margins(self, pts):
        return pts @ self._normals.T - self._offsets[None, :]

    def inside_mask(self, pts):
        return np.min(self._edge_margins(pts), axis=1) >= 0.0

    def box_state(self, lo, hi):
        # A box misses if all its corners lie outside one edge line.
        corners = box_corners(lo, hi)
        margins = self._edge_margins(corners.reshape(-1, 2)).reshape(corners.shape[:-1] + (-1,))
        return state_of(np.any(np.all(margins < 0.0, axis=-2), axis=-1),
                        np.all(margins >= 0.0, axis=(-2, -1)))

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


def _straight_skeleton(normals, offsets, verts, scale):
    """Medial-axis segments and inradius of a strictly convex polygon.

    The edge lines move inward at unit speed, n . (x, y) - t = o.  A
    convex wavefront meets only edge events (Aichholzer, Aurenhammer,
    Alberts and Gartner, 1995): an edge collapses where its line meets
    both neighbours', one 3x3 system per live edge, never singular since
    three distinct unit normals are never collinear points.  Each step
    joins the two vertex births of the earliest collapsing edge to the
    event point and drops that edge; the merged vertex is born there.
    The last three lines meet at the incentre, at t equal to the inradius.
    """
    ring = list(range(len(normals)))
    births = list(verts)
    segments = []
    while True:
        m = len(ring)
        lines = np.array(ring)[(np.arange(m)[:, None] + np.array([-1, 0, 1])) % m]
        system = np.concatenate([normals[lines], np.full((m, 3, 1), -1.0)], axis=2)
        events = np.linalg.solve(system, offsets[lines][..., None])[..., 0]
        a = int(np.argmin(events[:, 2]))
        point = events[a, :2]
        ends = births if m == 3 else [births[a], births[(a + 1) % m]]
        segments += [(b, point) for b in ends if np.linalg.norm(point - b) > 1e-12 * scale]
        if m == 3:
            return np.array(segments), float(events[a, 2])
        births[(a + 1) % m] = point
        del births[a], ring[a]


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

"""Warped-product hypersurfaces: sphere fibers of varying radius over a
convex base.

A spherical array in R^n is the set {(x'', f(x'')*u) : x'' in Omega,
u in S^{k-1}}: a (k-1)-sphere of radius f(x'') over each point of an
(n-k)-dimensional convex base Omega.  Points in R^n are ordered with
the n-k base coordinates first and the k fiber coordinates last.

An array is ``SphericalArray(base, warp)``, with n = base.dim + k.  A
warp holds k and the radius scale R, and is one of three classes:

* :class:`ArchimedeanWarp`: f = R * f_k(omega(x'')/R) with omega the
  distance to the boundary of the base.  This is the unique choice (up
  to the trivial one) that makes orthogonal projection onto the base
  scale volumes by the constant Vol(S^{k-1}(R)): the projection property
  that the classical sphere-to-cylinder correspondence exhibits for
  n=3, k=2.  The canonical closed array uses a ball base of radius
  R*m_k; any convex base with inradius <= R*m_k is accepted.
* :class:`CylinderWarp`: f = R constant, which satisfies the same
  projection property trivially.
* :class:`CustomWarp`: user-supplied warp (and optional gradient)
  callables, for probing non-constant-factor surfaces; no projection
  property assumed.

The area of the portion of the surface over a window U is
integral over U of Vol(S^{k-1}(1)) * f^{k-1} * sqrt(1 + |grad f|^2);
for the archimedean warp this integrand is identically
Vol(S^{k-1}(1)) * R^{k-1}, which the residual and volume routines
verify numerically rather than assume.
"""

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .base import Ball, BaseDomain, _points, base_from_description, row_norm, to_box
from .quadrature import REL_TOL, integrate
from .region import CELL_DEPTH, Region, clipped_quadrature, philox
from .scaling import make_scaling
from .special import ball_volume, gamma, sphere_area

__all__ = [
    "SphericalArray",
    "ArchimedeanWarp",
    "CylinderWarp",
    "CustomWarp",
    "make_archimedean",
    "equizonal_total_volume",
    "equizonal_enclosed_volume",
    "TotalVolume",
    "EnclosedVolume",
    "array_from_json",
]

# Within this fraction of the inradius from the base boundary, the area
# integrand is replaced by its finite analytic limit; the raw product is
# 0 * infinity there.
BOUNDARY_OFFSET_FRACTION = 1e-6


@dataclass(slots=True)
class TotalVolume:
    """Total area with an optional closed form for the canonical array."""

    value: float
    closed_form: float | None
    error_estimate: float


@dataclass(slots=True)
class EnclosedVolume:
    """Enclosed n-volume: deterministic value plus optional MC cross-check."""

    value: float
    error_estimate: float
    mc_value: float | None = None
    mc_error: float | None = None


class _Warp:
    """Answers ``radius(base, omega, pts)``, f at ``pts`` of boundary
    distance ``omega``; ``value_and_gradient(base, pts)``, (f/R, grad f),
    and ``gradient(base, pts)``, grad f alone; ``density(h, omega, pts)``,
    array h's area integrand; and ``constant_density``: f reads omega
    alone and the density is C.  An omega of None is read from pts."""

    scaling = None  # the profile f_k of an archimedean warp
    constant_density = True
    constant_radius = False  # f = R: total area and enclosed volume in closed form
    max_inradius = math.inf  # the largest base inradius f is defined over

    def __init__(self, k, r_scale=1.0):
        if int(k) < 2:
            raise ValueError("codimension k must be at least 2")
        if not r_scale > 0.0:
            raise ValueError("r_scale must be positive")
        self.k, self.r_scale = int(k), float(r_scale)

    def value_and_gradient(self, base, pts):
        """f/R, read through ``distance_to_boundary`` to refuse points off the base, and grad f."""
        g = self.radius(base, base.distance_to_boundary(pts), pts) / self.r_scale
        return g, self.gradient(base, pts)


class ArchimedeanWarp(_Warp):
    """f = R * f_k(omega/R), the constant-factor warp, over bases of
    inradius at most R * m_k."""

    name = "archimedean"

    def __init__(self, k, r_scale=1.0):
        super().__init__(k, r_scale)
        self.scaling = make_scaling(self.k)
        self.max_inradius = self.r_scale * self.scaling.m_k

    def radius(self, base, omega, pts):
        if omega is None:
            omega = np.maximum(base.signed_distance(pts), 0.0)
        return self.r_scale * self.scaling.f(omega / self.r_scale)

    def value_and_gradient(self, base, pts):
        """(f/R, grad f) from one profile evaluation per point.

        Over a ball base the gradient within the profile's series guard of
        the center comes from the even series, so it is smooth through the
        center (where the raw chain rule is 0/0).  Elsewhere the chain rule
        applies and points must stay outside the base's singular band.
        """
        scal, r = self.scaling, self.r_scale
        omega = base.distance_to_boundary(pts)
        if np.any(omega <= 0.0):
            raise ValueError("gradient undefined on the base boundary")
        w = np.minimum(omega / r, scal.m_k)
        y, yp = scal._f_pair(w)
        grads = np.empty((len(pts), base.dim))
        near = (scal.m_k - w <= scal.series_radius_guard) & isinstance(base, Ball)
        if np.any(near):
            rel = pts[near] - base.center
            t = scal.m_k - w[near]
            # f' * grad(omega) = ratio(t) * (x - c) / r with the
            # even series ratio, finite and smooth at the center.
            ratio = scal.series_prime_ratio(t)
            grads[near] = (ratio / r)[:, None] * rel
        if np.any(~near):
            # omega_gradient raises in the singular band, which for a
            # ball is the guarded center: call it off the guard only.
            grads[~near] = yp[~near][:, None] * base.omega_gradient(pts[~near])
        # r * y / r rounds as radius() / r does.
        return r * y / r, grads

    def gradient(self, base, pts):
        return self.value_and_gradient(base, pts)[1]

    def density(self, h, omega, pts):
        """C times the unit density y^{k-1} sqrt(1 + y'^2), which depends
        on the base point only through omega because |grad omega| = 1
        almost everywhere; within the boundary offset it is its limit C."""
        if omega is None:
            omega = np.maximum(h.base.signed_distance(pts), 0.0)
        w = np.minimum(np.asarray(omega, dtype=float) / self.r_scale, self.scaling.m_k)
        live = w * self.r_scale >= BOUNDARY_OFFSET_FRACTION * h.base.inradius()
        out = np.ones_like(w)
        if live.any():
            live = slice(None) if live.all() else live  # a view: no gather or scatter
            y, yp = self.scaling._f_pair(w[live])
            out[live] = y ** (self.k - 1) * np.sqrt(1.0 + yp * yp)
        return h.projection_constant * out


class CylinderWarp(_Warp):
    """f = R constant over any convex base."""

    name = "cylinder"
    constant_radius = True

    def radius(self, base, omega, pts):
        return np.full(len(pts), self.r_scale)

    def gradient(self, base, pts):
        return np.zeros((len(pts), base.dim))

    def density(self, h, omega, pts):
        return np.full(len(pts), h.projection_constant)


class CustomWarp(_Warp):
    """User-defined warp, no projection property assumed: ``warp`` maps
    (npoints, dim) interior base points to fiber radii, and the optional
    ``warp_gradient`` (needed for residuals and areas) to gradients."""

    name = "custom"
    constant_density = False

    def __init__(self, k, warp, warp_gradient=None, r_scale=1.0):
        super().__init__(k, r_scale)
        if not callable(warp) or not (warp_gradient is None or callable(warp_gradient)):
            raise ValueError("a custom warp needs a warp callable and a callable or no gradient")
        self.warp = warp
        self.warp_gradient = warp_gradient

    def radius(self, base, omega, pts):
        return np.asarray(self.warp(pts), dtype=float)

    def gradient(self, base, pts):
        if self.warp_gradient is None:
            raise ValueError("custom warp has no gradient callable")
        return np.asarray(self.warp_gradient(pts), dtype=float)

    def density(self, h, omega, pts):
        f = self.radius(h.base, omega, pts)
        grad = self.gradient(h.base, pts)
        gnorm2 = np.einsum("nd,nd->n", grad, grad)
        return sphere_area(self.k - 1, 1.0) * f ** (self.k - 1) * np.sqrt(1.0 + gnorm2)


class SphericalArray:
    """Immutable description of a warped product Omega x_f S^{k-1}: a
    convex ``base`` and a ``warp``, which give n, k, r_scale and the
    profile ``scaling`` (None but for an archimedean warp)."""

    def __init__(self, base, warp):
        if not isinstance(base, BaseDomain):
            raise TypeError("base must be a BaseDomain")
        if base.inradius() > warp.max_inradius * (1.0 + 1e-9):
            raise ValueError("an archimedean warp requires base inradius <= r_scale * m_k")
        self.base = base
        self.warp = warp
        self.base_dim, self.n, self.k = base.dim, base.dim + warp.k, warp.k
        self.r_scale, self.scaling = warp.r_scale, warp.scaling

    # -- basic structure ------------------------------------------------

    @property
    def warp_mode(self):
        """The warp's name, as :meth:`to_json` writes it."""
        return self.warp.name

    @property
    def projection_constant(self):
        """The constant C = Vol(S^{k-1}(R)) of the projection law: for an
        archimedean or cylinder warp the area over a window U is C times
        the volume of U ∩ Omega."""
        return sphere_area(self.k - 1, self.r_scale)

    def split_point(self, x):
        """Split ambient points into (base block, fiber block)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if pts.shape[1] != self.n:
            raise ValueError(f"expected points in R^{self.n}")
        return pts[:, : self.base_dim], pts[:, self.base_dim:], single

    # -- warp evaluation ------------------------------------------------

    def warping(self, x):
        """Fiber radius f(x'') at base points; zero on the base boundary."""
        pts, single = _points(x, self.base_dim)
        vals = self.warp.radius(self.base, self.base.distance_to_boundary(pts), pts)
        return float(vals[0]) if single else vals

    def warping_gradient(self, x):
        """Gradient of the fiber radius at strictly interior base points;
        see the warp's ``gradient``."""
        pts, single = _points(x, self.base_dim)
        grads = self.warp.gradient(self.base, pts)
        return grads[0] if single else grads

    def app_residual(self, x):
        """Deviation of the unit-normalized area element from 1.

        Returns g^{k-1} * sqrt(1 + |grad g|^2) - 1 with g = f/R; zero in
        exact arithmetic for archimedean and cylinder warps.  g and the
        gradient come from one ``value_and_gradient`` call, which for an
        archimedean warp is one profile inversion per point.
        """
        pts, single = _points(x, self.base_dim)
        g, grad = self.warp.value_and_gradient(self.base, pts)
        gnorm2 = np.einsum("nd,nd->n", grad, grad)
        res = g ** (self.k - 1) * np.sqrt(1.0 + gnorm2) - 1.0
        return float(res[0]) if single else res

    # -- implicit forms -------------------------------------------------

    def implicit_eval(self, x):
        """|x'|^2 - f(x'')^2: zero on the surface, negative inside."""
        xb, xf, single = self.split_point(x)
        f = self.warping(xb)
        f = np.atleast_1d(f)
        vals = np.einsum("nd,nd->n", xf, xf) - f * f
        return float(vals[0]) if single else vals

    def boundary_form_eval(self, x):
        """Boundary-friendly rewriting of the surface equation.

        Returns f_k^{-1}(|x'|/R) - omega(x'')/R, which is differentiable
        where the squared form is degenerate (near the base boundary);
        archimedean warps only.
        """
        if self.scaling is None:
            raise ValueError("the boundary form needs an archimedean warp")
        xb, xf, single = self.split_point(x)
        rho = row_norm(xf)
        if np.any(rho > self.r_scale * (1.0 + 1e-12)):
            raise ValueError("fiber radius exceeds r_scale")
        y = np.minimum(rho / self.r_scale, 1.0)
        vals = self.scaling.f_inverse(y) - self.base.signed_distance(xb) / self.r_scale
        return float(vals[0]) if single else vals

    # -- area and volume ------------------------------------------------

    def _area_density(self, pts):
        """The warp's coarea integrand C * (f/R)^{k-1} sqrt(1+|grad f|^2)
        at base points."""
        return self.warp.density(self, None, pts)

    def patch_volume(self, region, *, depth=CELL_DEPTH, seed=0):
        """Area of the portion of the surface over region ∩ base.

        The walk's volume is the region's ``clipped_volume`` for the same
        depth and seed, so it is cached there and a later gate against
        C * clipped volume walks the cells once.
        """
        result = clipped_quadrature(self.base, region, self._area_density,
                                    depth=depth, seed=seed)
        region._remember_clipped_volume(self.base, result.volume, depth=depth, seed=seed)
        return result.integral

    def _base_integral(self, integrand, to_units, depth, seed):
        """Integral of ``integrand(omega, pts)`` over the base, with an
        error estimate.  A constant-density warp depends on the base point
        only through omega, so over a ball it is integrated radially with
        ``pts`` None.  Otherwise clipped quadrature over the padded bounding
        box runs with ``omega`` None; ``to_units`` converts its Monte Carlo
        error, a base volume, to the integrand's units."""
        if self.warp.constant_density and isinstance(self.base, Ball):
            rad, d = self.base.radius, self.base_dim
            if d == 1:
                value = 2.0 * integrate(lambda rho: integrand(rad - rho, None), 0.0, rad)
            else:
                shell = sphere_area(d - 1, 1.0)
                value = integrate(lambda rho: shell * rho ** (d - 1) * integrand(rad - rho, None),
                                  0.0, rad)
            return value, abs(value) * REL_TOL
        blo, bhi = self.base.bounding_box()
        result = clipped_quadrature(self.base, Region.box(blo - 1.0, bhi + 1.0),
                                    lambda pts: integrand(None, pts), depth=depth, seed=seed)
        return result.integral, to_units(result.error_estimate)

    def total_volume(self, *, depth=CELL_DEPTH, seed=0):
        """Total area of the surface, with a closed form when available.

        The closed form applies to a cylinder and to the canonical
        archimedean array over a ball base of radius R*m_k: there the area
        factorizes into the unit fiber-sphere area times the base-ball
        volume, scaled by R^{n-1}.
        """
        coeff = self.projection_constant
        if self.warp.constant_radius:
            value = coeff * self.base.volume()
            return TotalVolume(value, value, 0.0)
        value, err = self._base_integral(lambda om, pts: self.warp.density(self, om, pts),
                                         lambda e: e * coeff, depth, seed)
        closed = None
        if (isinstance(self.base, Ball)
                and abs(self.base.radius - self.warp.max_inradius) <= 1e-9 * self.r_scale):
            closed = (sphere_area(self.k - 1, 1.0) * ball_volume(self.base_dim, self.scaling.m_k)
                      * self.r_scale ** (self.n - 1))
        return TotalVolume(value, closed, err)

    def enclosed_volume(self, samples=0, seed=0, *, depth=CELL_DEPTH):
        """n-volume of {(x'', x') : |x'| <= f(x'')}.

        Deterministic path: integrate the fiber-ball volume over the
        base.  With ``samples`` > 0 a Monte Carlo hit count over the
        bounding box cross-checks the value; a negative count raises.
        """
        samples = operator.index(samples)
        if samples < 0:
            raise ValueError(f"samples must be nonnegative, got {samples}")
        ck = ball_volume(self.k, 1.0)
        if self.warp.constant_radius:
            value, err = ck * self.r_scale ** self.k * self.base.volume(), 0.0
        else:
            value, err = self._base_integral(
                lambda om, pts: ck * self.warp.radius(self.base, om, pts) ** self.k,
                lambda e: e * ck * self.r_scale ** self.k, depth, seed,
            )
        if samples == 0:
            return EnclosedVolume(value, err)
        mc_value, mc_error = self._enclosed_mc(samples, seed)
        return EnclosedVolume(value, err, mc_value, mc_error)

    def _enclosed_mc(self, samples, seed):
        """Monte Carlo estimate (value, error) of the enclosed volume from
        hits in the bounding box.

        An archimedean warp tests the boundary form f_k^{-1}(|x'|/R) <=
        omega/R, which needs no forward root solve.  The profile's node
        table decides all but the samples near their bracket's ends
        (``ScalingFunction.at_most_by_nodes``); those of all chunks are
        inverted by one incomplete-beta call at the end.  Other warps
        compare |x'|^2 with f^2; a fiber radius above R, which the box
        would clip, raises ``ValueError``.
        """
        blo, bhi = self.base.bounding_box()
        lo = np.concatenate([blo, -self.r_scale * np.ones(self.k)])
        hi = np.concatenate([bhi, self.r_scale * np.ones(self.k)])
        box_vol = float(np.prod(hi - lo))
        bits = philox(seed, 0xE2C)
        chunk = 65536
        hits = done = index = 0
        unsure = []  # (y, x) of the samples the node table leaves open
        while done < samples:
            m = min(chunk, samples - done)
            gen = np.random.Generator(bits.jumped(index))
            index += 1
            pts = to_box(gen.random((m, self.n)), lo, hi)
            xb, xf = pts[:, : self.base_dim], pts[:, self.base_dim:]
            sd = self.base.signed_distance(xb)
            inside = sd >= 0.0
            if self.scaling is not None:
                rho = row_norm(xf) / self.r_scale
                keep = np.flatnonzero(inside & (rho <= 1.0))  # take: faster than a mask
                y, x = rho.take(keep), sd.take(keep) / self.r_scale
                sure, idx = self.scaling.at_most_by_nodes(y, x)
                hits += int(np.count_nonzero(sure))
                unsure.append((y[idx], x[idx]))
            elif np.any(inside):
                f = self.warp.radius(self.base, sd[inside], xb[inside])
                if np.any(f > self.r_scale):
                    raise ValueError("fiber radius exceeds r_scale, the half-height "
                                     "of the Monte Carlo box")
                rho2 = np.einsum("nd,nd->n", xf[inside], xf[inside])
                hits += int(np.count_nonzero(rho2 <= f * f))
            done += m
        if unsure:
            y, x = map(np.concatenate, zip(*unsure))
            hits += int(np.count_nonzero(self.scaling.f_inverse(y) <= x))
        frac = hits / samples
        value = box_vol * frac
        error = box_vol * math.sqrt(max(frac * (1.0 - frac), 1e-12) / samples)
        return value, error

    # -- serialization --------------------------------------------------

    def to_json(self):
        """Serializable description; custom warps are not serializable."""
        if self.warp_mode not in _WARPS:
            raise ValueError("custom warp callables cannot be serialized")
        doc = {
            "schema": 1,
            "n": self.n,
            "k": self.k,
            "r_scale": self.r_scale,
            "warp_mode": self.warp_mode,
            "base": self.base.describe(),
        }
        return json.dumps(doc, indent=2, sort_keys=True)


_WARPS = {w.name: w for w in (ArchimedeanWarp, CylinderWarp)}


def array_from_json(text):
    doc = json.loads(text)
    if doc.get("schema") != 1:
        raise ValueError("unsupported schema")
    mode = doc["warp_mode"]
    if not isinstance(mode, str) or mode not in _WARPS:
        raise ValueError(f"warp_mode must be one of {tuple(_WARPS)}, got {mode!r}")
    h = SphericalArray(base_from_description(doc["base"]),
                       _WARPS[mode](int(doc["k"]), float(doc["r_scale"])))
    if h.n != int(doc["n"]):
        raise ValueError("base dimension plus k must equal n")
    return h


def make_archimedean(n, k, r_scale=1.0):
    """Canonical constant-factor projection array: ball base of radius
    r_scale*m_k with the warp f = r_scale * f_k(omega/r_scale)."""
    n, k = int(n), int(k)
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    if not 2 <= k <= n - 1:
        raise ValueError("codimension k must satisfy 2 <= k <= n-1")
    warp = ArchimedeanWarp(k, r_scale)
    return SphericalArray(Ball(np.zeros(n - k), warp.max_inradius), warp)


def equizonal_total_volume(n, r_scale=1.0):
    """Closed-form area of the codimension n-1 array (surface of revolution)."""
    n = int(n)
    if n < 3:
        raise ValueError("n must be at least 3")
    return (
        2.0 * math.pi ** (n / 2.0) / (n - 2)
        * gamma((n - 1) / (2.0 * n - 4.0))
        / (gamma((n - 1) / 2.0) * gamma((2.0 * n - 3.0) / (2.0 * n - 4.0)))
        * r_scale ** (n - 1)
    )


def equizonal_enclosed_volume(n, r_scale=1.0):
    """Closed-form enclosed n-volume of the codimension n-1 array."""
    n = int(n)
    if n < 3:
        raise ValueError("n must be at least 3")
    return (
        2.0 * math.pi ** (n / 2.0) / ((n - 1) * (n - 2))
        * gamma((n - 1) / (n - 2.0))
        / (gamma((n - 1) / 2.0) * gamma((3.0 * n - 4.0) / (2.0 * n - 4.0)))
        * r_scale ** n
    )

"""Warped-product hypersurfaces: sphere fibers of varying radius over a
convex base.

A spherical array in R^n is the set {(x'', f(x'')*u) : x'' in Omega,
u in S^{k-1}}: a (k-1)-sphere of radius f(x'') over each point of an
(n-k)-dimensional convex base Omega.  Points in R^n are ordered with
the n-k base coordinates first and the k fiber coordinates last.

Three warp modes are supported:

* ``archimedean``: f = R * f_k(omega(x'')/R) with omega the distance to
  the boundary of the base.  This is the unique choice (up to the
  trivial one) that makes orthogonal projection onto the base scale
  volumes by the constant Vol(S^{k-1}(R)): the projection property that
  the classical sphere-to-cylinder correspondence exhibits for n=3, k=2.
  The canonical closed array uses a ball base of radius R*m_k; any
  convex base with inradius <= R*m_k is accepted.
* ``cylinder``: f = R constant, which satisfies the same projection
  property trivially.
* ``custom``: user-supplied warp (and optional gradient) callables, for
  probing non-constant-factor surfaces; no projection property assumed.

The area of the portion of the surface over a window U is
integral over U of Vol(S^{k-1}(1)) * f^{k-1} * sqrt(1 + |grad f|^2);
for the archimedean warp this integrand is identically
Vol(S^{k-1}(1)) * R^{k-1}, which the residual and volume routines
verify numerically rather than assume.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .base import Ball, BaseDomain, _points, base_from_description, to_box
from .quadrature import DEFAULT_SPEC, integrate
from .region import CELL_DEPTH, MC_POINTS, Region, clipped_quadrature, philox
from .scaling import make_scaling
from .special import ball_volume, gamma, sphere_area

__all__ = [
    "SphericalArray",
    "make_archimedean",
    "make_cylinder",
    "make_custom",
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

_MODES = ("archimedean", "cylinder", "custom")


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


class SphericalArray:
    """Immutable description of a warped product Omega x_f S^{k-1}.

    Use :func:`make_archimedean`, :func:`make_cylinder` or
    :func:`make_custom` rather than constructing directly.
    """

    def __init__(self, n, k, base, scaling, r_scale, warp_mode,
                 warp=None, warp_gradient=None):
        n = int(n)
        k = int(k)
        if n < 3:
            raise ValueError("ambient dimension must be at least 3")
        if not 2 <= k <= n - 1:
            raise ValueError("codimension k must satisfy 2 <= k <= n-1")
        if not isinstance(base, BaseDomain):
            raise TypeError("base must be a BaseDomain")
        if base.dim + k != n:
            raise ValueError("base dimension plus k must equal n")
        if not r_scale > 0.0:
            raise ValueError("r_scale must be positive")
        if warp_mode not in _MODES:
            raise ValueError(f"warp_mode must be one of {_MODES}")
        if warp_mode == "archimedean":
            if scaling is None or scaling.k != k:
                raise ValueError("archimedean mode needs the scaling profile for k")
            if base.inradius() > r_scale * scaling.m_k * (1.0 + 1e-9):
                raise ValueError(
                    "archimedean mode requires base inradius <= r_scale * m_k"
                )
        if warp_mode == "custom" and warp is None:
            raise ValueError("custom mode needs a warp callable")
        self.n = n
        self.k = k
        self.base = base
        self.scaling = scaling
        self.r_scale = float(r_scale)
        self.warp_mode = warp_mode
        self._warp = warp
        self._warp_gradient = warp_gradient

    # -- basic structure ------------------------------------------------

    @property
    def base_dim(self):
        return self.n - self.k

    @property
    def projection_constant(self):
        """The constant C = Vol(S^{k-1}(R)) of the projection law: for an
        archimedean or cylinder warp the area over a window U is C times
        the volume of U ∩ Omega."""
        return sphere_area(self.k - 1, self.r_scale)

    def _is_canonical_ball(self):
        return (
            self.warp_mode == "archimedean"
            and isinstance(self.base, Ball)
            and abs(self.base.radius - self.r_scale * self.scaling.m_k)
            <= 1e-9 * self.r_scale
        )

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
        sd = self.base.signed_distance(pts)
        if np.any(sd < -1e-12 * max(1.0, self.base.inradius())):
            raise ValueError("warping requires points in the closed base")
        omega = np.maximum(sd, 0.0)
        vals = self._warp_from_omega(omega, pts)
        return float(vals[0]) if single else vals

    def _warp_from_omega(self, omega, pts):
        if self.warp_mode == "archimedean":
            return self.r_scale * self.scaling.f(omega / self.r_scale)
        if self.warp_mode == "cylinder":
            return np.full(len(pts), self.r_scale)
        return np.asarray(self._warp(pts), dtype=float)

    def warping_gradient(self, x):
        """Gradient of the fiber radius at strictly interior base points.

        For the archimedean warp over a ball base the value within the
        profile's series guard of the center comes from the even series,
        so it is smooth through the center (where the raw chain rule is
        0/0).  Elsewhere the chain rule applies and points must stay
        outside the base's singular band.
        """
        pts, single = _points(x, self.base_dim)
        if self.warp_mode == "custom":
            if self._warp_gradient is None:
                raise ValueError("custom mode has no gradient callable")
            grads = np.asarray(self._warp_gradient(pts), dtype=float)
        elif self.warp_mode == "cylinder":
            grads = np.zeros((len(pts), self.base_dim))
        else:
            grads = self._profile_and_gradient(pts)[1]
        return grads[0] if single else grads

    def _profile_and_gradient(self, pts):
        """(f/R, grad f) of the archimedean warp from one profile
        evaluation per point; see :meth:`warping_gradient`."""
        scal = self.scaling
        r = self.r_scale
        omega = self.base.distance_to_boundary(pts)
        if np.any(omega <= 0.0):
            raise ValueError("gradient undefined on the base boundary")
        w = np.minimum(omega / r, scal.m_k)
        y, yp = scal._f_pair(w)
        grads = np.empty((len(pts), self.base_dim))
        near = np.zeros(len(pts), dtype=bool)
        if isinstance(self.base, Ball):
            near = scal.m_k - w <= scal.series_radius_guard
            if np.any(near):
                rel = pts[near] - self.base.center
                t = scal.m_k - w[near]
                # f' * grad(omega) = ratio(t) * (x - c) / r with the
                # even series ratio, finite and smooth at the center.
                ratio = scal.series_prime_ratio(t)
                grads[near] = (ratio / r)[:, None] * rel
        if np.any(~near):
            # omega_gradient raises in the singular band, which for a
            # ball is the guarded center: call it off the guard only.
            grads[~near] = yp[~near][:, None] * self.base.omega_gradient(pts[~near])
        return r * y / r, grads

    def app_residual(self, x):
        """Deviation of the unit-normalized area element from 1.

        Returns g^{k-1} * sqrt(1 + |grad g|^2) - 1 with g = f/R; zero in
        exact arithmetic for archimedean and cylinder modes.  An
        archimedean warp takes g and the gradient from one profile
        inversion per point.
        """
        pts, single = _points(x, self.base_dim)
        if self.warp_mode == "archimedean":
            g, grad = self._profile_and_gradient(pts)
        else:
            g = self._warp_from_omega(self.base.distance_to_boundary(pts), pts) / self.r_scale
            grad = self.warping_gradient(pts)
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
        archimedean mode only.
        """
        if self.warp_mode != "archimedean":
            raise ValueError("boundary form applies to archimedean mode only")
        xb, xf, single = self.split_point(x)
        rho = np.linalg.norm(xf, axis=1)
        if np.any(rho > self.r_scale * (1.0 + 1e-12)):
            raise ValueError("fiber radius exceeds r_scale")
        y = np.minimum(rho / self.r_scale, 1.0)
        vals = self.scaling.f_inverse(y) - self.base.signed_distance(xb) / self.r_scale
        return float(vals[0]) if single else vals

    # -- area and volume ------------------------------------------------

    def _area_density(self, pts):
        """Coarea integrand f^{k-1} sqrt(1+|grad f|^2) times the
        unit-sphere constant, clamped to its analytic limit within the
        boundary offset."""
        if self.warp_mode == "cylinder":
            return np.full(len(pts), self.projection_constant)
        if self.warp_mode == "custom":
            f = np.asarray(self._warp(pts), dtype=float)
            grad = np.asarray(self._warp_gradient(pts), dtype=float)
            gnorm2 = np.einsum("nd,nd->n", grad, grad)
            return sphere_area(self.k - 1, 1.0) * f ** (self.k - 1) * np.sqrt(1.0 + gnorm2)
        delta = BOUNDARY_OFFSET_FRACTION * self.base.inradius()
        omega = np.maximum(self.base.signed_distance(pts), 0.0)
        return self.projection_constant * self._profile_density(omega, delta)

    def _profile_density(self, omega, delta):
        """Unit-normalized area density as a function of omega alone.

        Valid for archimedean mode: |grad omega| = 1 almost everywhere,
        so the density depends on the base point only through omega.
        """
        scal = self.scaling
        w = np.minimum(np.asarray(omega, dtype=float) / self.r_scale, scal.m_k)
        out = np.ones_like(w)
        live = w * self.r_scale >= delta
        if np.any(live):
            y, yp = scal._f_pair(w[live])
            out[live] = y ** (self.k - 1) * np.sqrt(1.0 + yp * yp)
        return out

    def patch_volume(self, region, spec=DEFAULT_SPEC, *, depth=CELL_DEPTH,
                     mc_points=MC_POINTS, seed=0):
        """Area of the portion of the surface over region ∩ base.

        The walk's volume is the region's ``clipped_volume`` for the same
        depth and seed, so it is cached there and a later gate against
        C * clipped volume walks the cells once.
        """
        result = clipped_quadrature(
            self.base, region, self._area_density,
            depth=depth, mc_points=mc_points, seed=seed, spec=spec,
        )
        if mc_points == MC_POINTS:
            region._remember_clipped_volume(self.base, result.volume, depth=depth, seed=seed)
        return result.integral

    def _base_integral(self, profile, density, to_units, spec, depth, mc_points, seed):
        """Integral over the base, with an error estimate.

        An archimedean warp over a ball base depends on the base point
        only through omega, so ``profile(omega)`` is integrated radially.
        Any other base takes clipped quadrature of ``density(pts)`` over
        its padded bounding box; the Monte Carlo error of that is a base
        volume, which ``to_units`` converts to the integrand's units.
        """
        if self.warp_mode == "archimedean" and isinstance(self.base, Ball):
            rad = self.base.radius
            d = self.base_dim
            if d == 1:
                value = 2.0 * integrate(lambda rho: profile(rad - rho), 0.0, rad, spec)
            else:
                shell = sphere_area(d - 1, 1.0)
                value = integrate(
                    lambda rho: shell * rho ** (d - 1) * profile(rad - rho), 0.0, rad, spec
                )
            return value, abs(value) * spec.rel_tol
        blo, bhi = self.base.bounding_box()
        result = clipped_quadrature(
            self.base, Region.box(blo - 1.0, bhi + 1.0), density,
            depth=depth, mc_points=mc_points, seed=seed, spec=spec,
        )
        return result.integral, to_units(result.error_estimate)

    def total_volume(self, spec=DEFAULT_SPEC, *, depth=CELL_DEPTH,
                     mc_points=MC_POINTS, seed=0):
        """Total area of the surface, with a closed form when available.

        The closed form applies to the canonical archimedean array over
        a ball base of radius R*m_k: the area factorizes into the unit
        fiber-sphere area times the base-ball volume, scaled by R^{n-1}.
        """
        coeff = self.projection_constant
        if self.warp_mode == "cylinder":
            value = coeff * self.base.volume()
            return TotalVolume(value, value, 0.0)
        delta = BOUNDARY_OFFSET_FRACTION * self.base.inradius()
        value, err = self._base_integral(
            lambda om: coeff * self._profile_density(om, delta), self._area_density,
            lambda e: e * coeff, spec, depth, mc_points, seed,
        )
        closed = None
        if self._is_canonical_ball():
            closed = (
                sphere_area(self.k - 1, 1.0)
                * ball_volume(self.base_dim, self.scaling.m_k)
                * self.r_scale ** (self.n - 1)
            )
        return TotalVolume(value, closed, err)

    def enclosed_volume(self, samples=0, seed=0, spec=DEFAULT_SPEC, *,
                        depth=CELL_DEPTH, mc_points=MC_POINTS):
        """n-volume of {(x'', x') : |x'| <= f(x'')}.

        Deterministic path: integrate the fiber-ball volume over the
        base.  With ``samples`` > 0 a Monte Carlo hit count over the
        bounding box cross-checks the value.
        """
        ck = ball_volume(self.k, 1.0)
        if self.warp_mode == "cylinder":
            value = ck * self.r_scale ** self.k * self.base.volume()
            err = 0.0
        else:
            def fiber_ball(om, pts=None):
                return ck * self._warp_from_omega(om, pts) ** self.k

            value, err = self._base_integral(
                fiber_ball,
                lambda pts: fiber_ball(np.maximum(self.base.signed_distance(pts), 0.0), pts),
                lambda e: e * ck * self.r_scale ** self.k, spec, depth, mc_points, seed,
            )
        if samples <= 0:
            return EnclosedVolume(value, err)
        mc_value, mc_error = self._enclosed_mc(int(samples), seed)
        return EnclosedVolume(value, err, mc_value, mc_error)

    def _enclosed_mc(self, samples, seed):
        """Monte Carlo estimate (value, error) of the enclosed volume from
        hits in the bounding box.

        An archimedean warp tests the boundary form f_k^{-1}(|x'|/R) <=
        omega/R, which needs no forward root solve; the profile's node
        table decides all but the samples near their bracket's ends
        (``ScalingFunction.inverse_at_most``), so few samples cost an
        incomplete beta.  Other warps compare |x'|^2 with f^2; a fiber
        radius above R, which the box would clip, raises ``ValueError``.
        """
        blo, bhi = self.base.bounding_box()
        lo = np.concatenate([blo, -self.r_scale * np.ones(self.k)])
        hi = np.concatenate([bhi, self.r_scale * np.ones(self.k)])
        box_vol = float(np.prod(hi - lo))
        bits = philox(seed, 0xE2C)
        chunk = 65536
        hits = 0
        done = 0
        index = 0
        while done < samples:
            m = min(chunk, samples - done)
            gen = np.random.Generator(bits.jumped(index))
            index += 1
            pts = to_box(gen.random((m, self.n)), lo, hi)
            xb = pts[:, : self.base_dim]
            xf = pts[:, self.base_dim:]
            sd = self.base.signed_distance(xb)
            inside = sd >= 0.0
            if self.warp_mode == "archimedean":
                rho = np.linalg.norm(xf[inside], axis=1) / self.r_scale
                tall = rho <= 1.0
                hits += int(np.count_nonzero(self.scaling.inverse_at_most(
                    rho[tall], sd[inside][tall] / self.r_scale)))
            elif np.any(inside):
                f = self._warp_from_omega(sd[inside], xb[inside])
                if np.any(f > self.r_scale):
                    raise ValueError("fiber radius exceeds r_scale, the half-height "
                                     "of the Monte Carlo box")
                rho2 = np.einsum("nd,nd->n", xf[inside], xf[inside])
                hits += int(np.count_nonzero(rho2 <= f * f))
            done += m
        frac = hits / samples
        value = box_vol * frac
        error = box_vol * math.sqrt(max(frac * (1.0 - frac), 1e-12) / samples)
        return value, error

    # -- serialization --------------------------------------------------

    def to_json(self):
        """Serializable description; custom warps are not serializable."""
        if self.warp_mode == "custom":
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


def array_from_json(text):
    doc = json.loads(text)
    if doc.get("schema") != 1:
        raise ValueError("unsupported schema")
    base = base_from_description(doc["base"])
    mode = doc["warp_mode"]
    k = int(doc["k"])
    scaling = make_scaling(k) if mode == "archimedean" else None
    return SphericalArray(
        int(doc["n"]), k, base, scaling, float(doc["r_scale"]), mode
    )


def make_archimedean(n, k, r_scale=1.0):
    """Canonical constant-factor projection array: ball base of radius
    r_scale*m_k with the warp f = r_scale * f_k(omega/r_scale)."""
    n = int(n)
    k = int(k)
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    if not 2 <= k <= n - 1:
        raise ValueError("codimension k must satisfy 2 <= k <= n-1")
    if not r_scale > 0.0:
        raise ValueError("r_scale must be positive")
    scaling = make_scaling(k)
    base = Ball(np.zeros(n - k), r_scale * scaling.m_k)
    return SphericalArray(n, k, base, scaling, r_scale, "archimedean")


def make_cylinder(k, base, r_scale=1.0):
    """Constant warp f = r_scale over an arbitrary convex base."""
    return SphericalArray(base.dim + int(k), int(k), base, None, r_scale, "cylinder")


def make_custom(k, base, warp, warp_gradient=None, r_scale=1.0):
    """User-defined warp over a convex base; no projection property assumed.

    ``warp`` maps (npoints, dim) base points to fiber radii; the
    optional ``warp_gradient`` maps them to (npoints, dim) gradients and
    is required for residual evaluation.  Callables must be defined on
    the open interior of the base.
    """
    return SphericalArray(
        base.dim + int(k), int(k), base, None, r_scale, "custom",
        warp=warp, warp_gradient=warp_gradient,
    )


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

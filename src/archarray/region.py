"""Regions in the base space and quadrature over region-domain intersections.

A region is an axis-aligned box or a ball in the same space as a base
domain.  The engine here computes volumes and integrals over the convex
intersection region ∩ domain by adaptive cell subdivision of the shared
bounding box:

* cells whose corners all lie in both convex sets are entirely inside
  (exact, by convexity) and take a composite tensor Gauss rule refined
  to the depth cap;
* cells separated from either set by a supporting hyperplane or a
  distance test are discarded (exact);
* undecided cells split along their longest axis down to a depth cap,
  after which they are resolved by Monte Carlo with a per-cell
  counter-based stream.

The Monte Carlo nodes depend only on (seed, leaf order), never on the
integrand, so two quadratures over the same geometry share their nodes
exactly and the geometric part of the error cancels in ratios.  In one
dimension every intersection is an interval and is handled exactly.
"""

import json
import math

import numpy as np

from .base import box_corners
from .quadrature import DEFAULT_SPEC, integrate

__all__ = [
    "Region",
    "ClippedIntegral",
    "clipped_quadrature",
    "region_from_description",
    "inside_mask",
]

CELL_DEPTH = 12
MC_POINTS = 256


class Region:
    """Axis box or ball used as a projection window in the base space."""

    def __init__(self, shape, **params):
        if shape == "box":
            lo = np.atleast_1d(np.asarray(params.pop("lo"), dtype=float))
            hi = np.atleast_1d(np.asarray(params.pop("hi"), dtype=float))
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ValueError("box needs lo and hi of the same dimension")
            if not np.all(lo < hi):
                raise ValueError("box needs lo < hi componentwise")
            self.lo = lo
            self.hi = hi
            self.dim = lo.size
        elif shape == "ball":
            center = np.atleast_1d(np.asarray(params.pop("center"), dtype=float))
            radius = float(params.pop("radius"))
            if not radius > 0.0:
                raise ValueError("ball radius must be positive")
            self.center = center
            self.radius = radius
            self.dim = center.size
        else:
            raise ValueError(f"unknown region shape {shape!r}")
        if params:
            raise TypeError(f"unexpected parameters {sorted(params)}")
        self.shape = shape
        self._clip_cache = {}

    @classmethod
    def box(cls, lo, hi):
        return cls("box", lo=lo, hi=hi)

    @classmethod
    def ball(cls, center, radius):
        return cls("ball", center=center, radius=radius)

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.shape == "box":
            return np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)
        d = pts - self.center
        return np.einsum("...d,...d->...", d, d) <= self.radius ** 2

    def volume(self):
        """Exact volume of the region shape itself (unclipped)."""
        if self.shape == "box":
            return float(np.prod(self.hi - self.lo))
        from .special import ball_volume

        return ball_volume(self.dim, self.radius)

    def bounding_box(self):
        if self.shape == "box":
            return self.lo.copy(), self.hi.copy()
        return self.center - self.radius, self.center + self.radius

    def clipped_volume(self, base, *, depth=CELL_DEPTH, seed=0):
        """Volume of region ∩ base, cached per (base value, depth, seed)."""
        key = (json.dumps(base.describe(), sort_keys=True), depth, seed)
        if key not in self._clip_cache:
            result = clipped_quadrature(base, self, depth=depth, seed=seed)
            self._clip_cache[key] = result.volume
        return self._clip_cache[key]

    def describe(self):
        if self.shape == "box":
            return {
                "shape": "box",
                "lo": [float(v) for v in self.lo],
                "hi": [float(v) for v in self.hi],
            }
        return {
            "shape": "ball",
            "center": [float(v) for v in self.center],
            "radius": self.radius,
        }


def region_from_description(desc):
    shape = desc.get("shape")
    if shape == "box":
        return Region.box(desc["lo"], desc["hi"])
    if shape == "ball":
        return Region.ball(desc["center"], desc["radius"])
    raise ValueError(f"unknown region shape {shape!r}")


class ClippedIntegral:
    """Volume and integral over region ∩ base with an error estimate."""

    __slots__ = ("volume", "integral", "error_estimate")

    def __init__(self, volume, integral, error_estimate):
        self.volume = volume
        self.integral = integral
        self.error_estimate = error_estimate

    def __repr__(self):
        return (
            f"ClippedIntegral(volume={self.volume!r}, integral={self.integral!r}, "
            f"error_estimate={self.error_estimate!r})"
        )


def inside_mask(base, pts):
    """Inside mask of a batch of base points, from the domain's own test."""
    return base.inside_mask(pts)


def _region_outside_cell(region, lo, hi):
    if region.shape == "box":
        return bool(np.any(hi < region.lo) or np.any(lo > region.hi))
    gap = np.maximum(np.maximum(lo - region.center, region.center - hi), 0.0)
    return float(np.sum(gap * gap)) > region.radius ** 2


def _halve(lo, hi):
    """Split a cell at the midpoint of its longest axis: (lower, upper)."""
    axis = int(np.argmax(hi - lo))
    mid = 0.5 * (lo[axis] + hi[axis])
    hi1 = hi.copy()
    hi1[axis] = mid
    lo2 = lo.copy()
    lo2[axis] = mid
    return (lo, hi1), (lo2, hi)


_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)

# Bound on the extra halvings used to refine the composite rule inside
# an accepted cell; 2^12 subcells caps the node count per cell.
_GAUSS_SPLIT_CAP = 12


def _gauss_nodes(lo, hi):
    mid = 0.5 * (lo + hi)
    off = _GAUSS_OFFSET * (hi - lo)
    return box_corners(mid - off, mid + off)


def _composite_gauss_nodes(lo, hi, levels):
    """Tensor Gauss nodes on the halving subgrid of an accepted cell.

    Corner acceptance can trigger on large cells, where a single
    two-point rule is poor for integrands with interior kinks (distance
    functions of polygons).  Splitting ``levels`` more times along the
    same longest-axis rule yields equal-volume subcells, so the cell
    integral is the plain node mean times the cell volume, and a
    constant integrand is still reproduced exactly.
    """
    cells = [(lo, hi)]
    for _ in range(min(levels, _GAUSS_SPLIT_CAP)):
        cells = [half for clo, chi in cells for half in _halve(clo, chi)]
    return np.vstack([_gauss_nodes(clo, chi) for clo, chi in cells])


def _interval_1d(base, region):
    """Exact intersection interval for one-dimensional geometry."""
    blo, bhi = base.bounding_box()
    lo, hi = float(blo[0]), float(bhi[0])
    rlo, rhi = region.bounding_box()
    lo = max(lo, float(rlo[0]))
    hi = min(hi, float(rhi[0]))
    return lo, hi


def clipped_quadrature(base, region, integrand=None, *, depth=CELL_DEPTH,
                       mc_points=MC_POINTS, seed=0, spec=DEFAULT_SPEC):
    """Quadrature of ``integrand`` over region ∩ base.

    Returns a :class:`ClippedIntegral`; with ``integrand=None`` the
    integral equals the volume.  Results are deterministic for fixed
    (base, region, depth, mc_points, seed) and use integrand-independent
    nodes.
    """
    if region.dim != base.dim:
        raise ValueError("region and base dimensions differ")

    if base.dim == 1:
        lo, hi = _interval_1d(base, region)
        if hi <= lo:
            return ClippedIntegral(0.0, 0.0, 0.0)
        volume = hi - lo
        if integrand is None:
            return ClippedIntegral(volume, volume, 0.0)
        value = integrate(lambda t: integrand(np.atleast_1d(t)[:, None]), lo, hi, spec)
        return ClippedIntegral(volume, value, 0.0)

    blo, bhi = base.bounding_box()
    rlo, rhi = region.bounding_box()
    lo = np.maximum(blo, rlo)
    hi = np.minimum(bhi, rhi)
    if np.any(hi <= lo):
        return ClippedIntegral(0.0, 0.0, 0.0)

    rng_key = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x7C1])
    philox = np.random.Philox(key=rng_key.generate_state(2, np.uint64))

    vol_sum = 0.0
    vol_comp = 0.0
    int_sum = 0.0
    int_comp = 0.0
    var_sum = 0.0
    leaf_counter = 0

    def accumulate_vol(v):
        nonlocal vol_sum, vol_comp
        y = v - vol_comp
        t = vol_sum + y
        vol_comp = (t - vol_sum) - y
        vol_sum = t

    def accumulate_int(v):
        nonlocal int_sum, int_comp
        y = v - int_comp
        t = int_sum + y
        int_comp = (t - int_sum) - y
        int_sum = t

    stack = [(lo, hi, 0)]
    while stack:
        clo, chi, d = stack.pop()
        if _region_outside_cell(region, clo, chi) or base.misses_box(clo, chi):
            continue
        corners = box_corners(clo, chi)
        inside = np.all(region.contains(corners)) and np.all(inside_mask(base, corners))
        cell_vol = float(np.prod(chi - clo))
        if inside:
            accumulate_vol(cell_vol)
            if integrand is not None:
                nodes = _composite_gauss_nodes(clo, chi, depth - d)
                accumulate_int(cell_vol * float(np.mean(integrand(nodes))))
            else:
                accumulate_int(cell_vol)
            continue
        if d < depth:
            lower, upper = _halve(clo, chi)
            # Push the upper half first so the lower half is processed
            # first; leaf numbering is then a fixed depth-first order.
            stack.append((*upper, d + 1))
            stack.append((*lower, d + 1))
            continue
        # Monte Carlo leaf with its own deterministic stream.
        gen = np.random.Generator(philox.jumped(leaf_counter))
        leaf_counter += 1
        u = gen.random((mc_points, base.dim))
        pts = clo[None, :] + u * (chi - clo)[None, :]
        mask = region.contains(pts) & inside_mask(base, pts)
        hits = int(np.count_nonzero(mask))
        frac = hits / mc_points
        accumulate_vol(cell_vol * frac)
        var_sum += cell_vol ** 2 * frac * (1.0 - frac) / mc_points
        if integrand is None:
            accumulate_int(cell_vol * frac)
        elif hits:
            vals = integrand(pts[mask])
            accumulate_int(cell_vol * float(np.sum(vals)) / mc_points)

    return ClippedIntegral(vol_sum, int_sum, math.sqrt(var_sum))

"""Regions in the base space and quadrature over region-domain intersections.

A region is an axis-aligned box or a ball in the same space as a base
domain.  The engine here computes volumes and integrals over the convex
intersection region ∩ domain by subdividing the shared bounding box
level by level, each test running on all cells of a level at once:

* cells separated from either set by a supporting hyperplane or a
  distance test are discarded (exact);
* cells whose corners all lie in both convex sets are entirely inside
  (exact, by convexity) and take a composite tensor Gauss rule refined
  to the depth cap;
* the other cells split along their longest axis, each lower half
  listed before its upper half, so every level is in depth-first order.
  Cells still undecided at the depth cap are Monte Carlo leaves, and
  leaf i draws from its own counter-based Philox stream, which starts
  at counter (0, 0, i, 0); one generator reaches each leaf's start by
  ``advance``.

The integrand sees Gauss nodes and Monte Carlo hits in blocks of at most
``_BLOCK`` points; volume, integral and variance are summed with
``math.fsum``.  The Monte Carlo nodes depend only on (seed, leaf order),
never on the integrand, so two quadratures over the same geometry share
their nodes exactly and the geometric part of the error cancels in
ratios.  The unit-cube draws of a leaf do not depend on the region
either: a :class:`LeafDraws` passed to several walks (the statistical
gate's windows) makes each leaf's draws once for all of them, while a
walk on its own holds one block of leaves at a time.  In one dimension
every intersection is an interval and is handled exactly.

Point tests work one coordinate column at a time: each coordinate is
one long vector operation, where a row-wise reduction over a (N, dim)
array would run numpy's inner loop over dim elements.
"""

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .base import box_corners, squared_distance
from .quadrature import DEFAULT_SPEC, integrate

__all__ = [
    "Region",
    "ClippedIntegral",
    "clipped_quadrature",
    "LeafDraws",
    "region_from_description",
    "inside_mask",
    "philox",
]

CELL_DEPTH = 12
MC_POINTS = 256


def philox(seed, salt):
    """Philox bit generator keyed by (seed, salt); each random stream of
    the package has its own salt."""
    seq = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, salt])
    return np.random.Philox(key=seq.generate_state(2, np.uint64))


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
        """Inside mask of points (..., dim), one coordinate column at a time."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1:] != (self.dim,):
            raise ValueError(f"expected points of dimension {self.dim}, got shape {pts.shape}")
        if self.shape == "ball":
            return squared_distance(pts, self.center) <= self.radius ** 2
        inside = (pts[..., 0] >= self.lo[0]) & (pts[..., 0] <= self.hi[0])
        for j in range(1, self.dim):
            inside &= pts[..., j] >= self.lo[j]
            inside &= pts[..., j] <= self.hi[j]
        return inside

    def misses_box(self, lo, hi):
        """True only if the axis box [lo, hi] misses the region; a batch of
        boxes, (m, dim) each, gets one answer per box."""
        if self.shape == "box":
            return np.any((hi < self.lo) | (lo > self.hi), axis=-1)
        # The box point nearest the centre is the centre clipped to the box.
        return squared_distance(np.clip(self.center, lo, hi), self.center) > self.radius ** 2

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

    def clipped_volume(self, base, *, depth=CELL_DEPTH, seed=0, draws=None):
        """Volume of region ∩ base, cached per (base value, depth, seed);
        ``draws`` is passed on to :func:`clipped_quadrature`."""
        key = _clip_key(base, depth, seed)
        if key not in self._clip_cache:
            result = clipped_quadrature(base, self, depth=depth, seed=seed, draws=draws)
            self._clip_cache[key] = result.volume
        return self._clip_cache[key]

    def _remember_clipped_volume(self, base, volume, *, depth, seed):
        """Cache the volume of a quadrature over region ∩ base with an
        integrand, the same depth and seed and ``MC_POINTS`` leaf draws:
        the integrand does not move the volume, so it is the value
        ``clipped_volume`` would compute."""
        self._clip_cache[_clip_key(base, depth, seed)] = volume

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


def _clip_key(base, depth, seed):
    return json.dumps(base.describe(), sort_keys=True), depth, seed


def region_from_description(desc):
    shape = desc.get("shape")
    if shape == "box":
        return Region.box(desc["lo"], desc["hi"])
    if shape == "ball":
        return Region.ball(desc["center"], desc["radius"])
    raise ValueError(f"unknown region shape {shape!r}")


@dataclass(slots=True)
class ClippedIntegral:
    """Volume and integral over region ∩ base with an error estimate.

    The walk's counters ride along: ``cells_accepted`` cells lay inside
    both sets, ``cells_discarded`` missed one of them, and ``mc_leaves``
    were left undecided at the depth cap and scored by Monte Carlo.
    """

    volume: float
    integral: float
    error_estimate: float
    cells_accepted: int = field(default=0, kw_only=True, repr=False)
    cells_discarded: int = field(default=0, kw_only=True, repr=False)
    mc_leaves: int = field(default=0, kw_only=True, repr=False)


def inside_mask(base, pts):
    """Inside mask of a batch of base points, from the domain's own test."""
    return base.inside_mask(pts)


def _halve(lo, hi):
    """Split each cell of an (m, dim) batch at the midpoint of its longest
    axis.  Row 2i is cell i's lower half and row 2i + 1 its upper half, so
    halving level by level keeps the cells in depth-first order."""
    rows = np.arange(len(lo))
    axis = np.argmax(hi - lo, axis=1)
    mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
    lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
    hi[2 * rows, axis] = mid
    lo[2 * rows + 1, axis] = mid
    return lo, hi


_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)

# Bound on the extra halvings used to refine the composite rule inside
# an accepted cell; 2^12 subcells caps the node count per cell.
_GAUSS_SPLIT_CAP = 12

# Points per integrand call and per batch of Monte Carlo draws.  It bounds
# the memory of one call (an integrand holds many temporaries per point)
# while keeping the number of calls small.
_BLOCK = 8192


def _gauss_nodes(lo, hi):
    """Tensor two-point Gauss nodes of an (m, dim) batch of cells, cell by cell."""
    mid = 0.5 * (lo + hi)
    off = _GAUSS_OFFSET * (hi - lo)
    return box_corners(mid - off, mid + off).reshape(-1, lo.shape[1])


def _interval_1d(base, region):
    """Exact intersection interval for one-dimensional geometry."""
    blo, bhi = base.bounding_box()
    lo, hi = float(blo[0]), float(bhi[0])
    rlo, rhi = region.bounding_box()
    lo = max(lo, float(rlo[0]))
    hi = min(hi, float(rhi[0]))
    return lo, hi


class LeafDraws:
    """Unit-cube draws of the cell walk's Monte Carlo leaves.

    Leaf i draws ``mc_points`` points of ``dim`` coordinates from its own
    counter-based Philox stream, which starts at counter (0, 0, i, 0),
    where ``philox.jumped(i)`` would start.  One generator reads a leaf's
    draws, ceil(mc_points * dim / 4) counters, and ``advance`` takes it on
    to the next leaf's start (advancing also drops the unread part of a
    block).  The leaves depend only on (seed, mc_points, dim), never on
    the region, so walks over several regions can share them: with
    ``keep=True`` every leaf drawn is held and each is drawn once for all
    walks; otherwise only the leaves of the last request are held.
    """

    def __init__(self, seed, mc_points, dim, *, keep=False):
        self._philox = philox(seed, 0x7C1)
        self._gen = np.random.Generator(self._philox)
        self._to_next_leaf = (1 << 128) - (mc_points * dim + 3) // 4
        self.key = (seed, mc_points, dim)
        self.keep = keep
        self._first = 0
        self._held = np.empty((0, mc_points, dim))

    def leaves(self, start, count):
        """Draws of leaves ``start`` to ``start + count - 1``, as a view
        (count, mc_points, dim); leaves are asked for in order."""
        drawn = self._first + len(self._held)
        if start + count > drawn:
            new = np.empty((start + count - drawn,) + self._held.shape[1:])
            for leaf in new:
                self._gen.random(out=leaf)
                self._philox.advance(self._to_next_leaf)
            if self.keep:
                self._held = np.concatenate([self._held, new])
            else:
                self._first, self._held = drawn, new
        return self._held[start - self._first:start - self._first + count]


def clipped_quadrature(base, region, integrand=None, *, depth=CELL_DEPTH,
                       mc_points=MC_POINTS, seed=0, spec=DEFAULT_SPEC, draws=None):
    """Quadrature of ``integrand`` over region ∩ base.

    Returns a :class:`ClippedIntegral`; with ``integrand=None`` the
    integral equals the volume.  Results are deterministic for fixed
    (base, region, depth, mc_points, seed) and use integrand-independent
    nodes.  ``draws``, a :class:`LeafDraws` for (seed, mc_points,
    base.dim), supplies the Monte Carlo leaves when several walks share
    them; the result does not depend on it.
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

    dim = base.dim
    if draws is None:
        draws = LeafDraws(seed, mc_points, dim)
    elif draws.key != (seed, mc_points, dim):
        raise ValueError(f"leaf draws for {draws.key}, not {(seed, mc_points, dim)}")
    lo, hi = lo[None, :], hi[None, :]
    volume, variance, sums, rule = [], [], [], []
    accepted = discarded = 0
    for d in range(depth + 1):
        if d:
            lo, hi = _halve(lo, hi)
        keep = ~(region.misses_box(lo, hi) | base.misses_box(lo, hi))
        discarded += len(lo)
        lo, hi = lo[keep], hi[keep]
        discarded -= len(lo)
        corners = box_corners(lo, hi).reshape(-1, dim)
        inside = np.all((region.contains(corners) & inside_mask(base, corners))
                        .reshape(len(lo), 2 ** dim), axis=1)
        alo, ahi = lo[inside], hi[inside]
        accepted += len(alo)
        volume.append(np.prod(ahi - alo, axis=1))
        if integrand is not None:
            # One two-point rule on a large accepted cell is poor for kinked
            # integrands (polygon distance functions).  Halving on to the depth
            # cap gives equal-volume subcells, so each node carries the cell
            # volume over its node count and constants integrate exactly.
            splits = min(depth - d, _GAUSS_SPLIT_CAP)
            for _ in range(splits):
                alo, ahi = _halve(alo, ahi)
            rule.append((alo, ahi, np.repeat(volume[-1] / 2 ** (splits + dim), 2 ** splits)))
        lo, hi = lo[~inside], hi[~inside]

    if integrand is not None:
        sub_lo, sub_hi, weights = (np.concatenate(a) for a in zip(*rule))
        step = max(1, _BLOCK >> dim)
        for s in range(0, len(sub_lo), step):
            nodes = _gauss_nodes(sub_lo[s:s + step], sub_hi[s:s + step])
            sums.append(math.fsum(np.repeat(weights[s:s + step], 2 ** dim) * integrand(nodes)))

    # The cells left at the depth cap are the Monte Carlo leaves, in
    # depth-first order; leaf i scores the draws of LeafDraws leaf i.
    step = max(1, _BLOCK // mc_points)
    for s in range(0, len(lo), step):
        clo, chi = lo[s:s + step], hi[s:s + step]
        u = draws.leaves(s, len(clo))
        width = chi - clo
        # The leaf points clo + u * width, one coordinate column at a time.
        pts = np.empty_like(u)
        for j in range(dim):
            np.multiply(u[:, :, j], width[:, j, None], out=pts[:, :, j])
            pts[:, :, j] += clo[:, j, None]
        pts = pts.reshape(-1, dim)
        mask = region.contains(pts) & inside_mask(base, pts)
        hits = np.count_nonzero(mask.reshape(len(clo), mc_points), axis=1)
        cell_vol = np.prod(width, axis=1)
        frac = hits / mc_points
        volume.append(cell_vol * frac)
        variance.append(cell_vol ** 2 * frac * (1.0 - frac) / mc_points)
        if integrand is not None and hits.any():
            sums.append(math.fsum(np.repeat(cell_vol / mc_points, hits)
                                  * integrand(np.compress(mask, pts, axis=0))))

    vol = math.fsum(chain.from_iterable(volume))
    integral = vol if integrand is None else math.fsum(sums)
    return ClippedIntegral(vol, integral, math.sqrt(math.fsum(chain.from_iterable(variance))),
                           cells_accepted=accepted, cells_discarded=discarded,
                           mc_leaves=len(lo))

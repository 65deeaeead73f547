"""Statistical verification of the constant-factor projection property.

The projection property says the surface area over a window U is a
constant multiple of Vol(U ∩ Ω).  Probabilistically: push the uniform
surface measure through the projection onto the base and you get the
uniform base measure.  This module samples the surface measure, bins
base projections against windows, and scores the result under the
binomial model.

All randomness is counter-based (Philox) with fixed chunking, so a
given seed reproduces the same stream regardless of how the work is
divided.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .base import row_norm, to_box
from .region import Region, inside_mask, philox as _philox
from .special import gamma_q

__all__ = [
    "halton",
    "interior_points",
    "sample_surface",
    "random_regions",
    "app_statistical_test",
    "RegionScore",
    "StatReport",
]

_CHUNK = 65536
# Ulps of a window's largest first-coordinate bound by which the statistical
# gate widens the window's slice of the sorted samples.
_SLICE_ULPS = 8
# First-coordinate buckets by which the statistical gate orders its samples;
# the bucket index fits a uint16, which numpy argsorts by radix.
_BUCKETS = 1 << 16
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# Factor by which interior_points overdraws its expected shortfall.
_BATCH_MARGIN = 1.1
# The statistical gate passes when the aggregate p-value is at least
# P_FLOOR and at most MAX_Z_OUTLIERS windows have |z| above Z_THRESHOLD.
P_FLOOR = 0.001
Z_THRESHOLD = 4.0
MAX_Z_OUTLIERS = 1


def halton(count, dim, *, start=1):
    """Quasi-random points in the unit cube (Halton, 1960): coordinate d of
    index i sums its base-b digits times 1/b, 1/b^2, ..., lowest first.
    ``start`` (at least 0) skips initial terms; the default skips the origin.

    The low digits' sum is read from ``_halton_low``, and each higher
    digit's terms are formed once per distinct high part and gathered.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports up to {len(_PRIMES)} dimensions")
    if start < 0:
        raise ValueError("halton start must be nonnegative")
    idx = np.arange(start, start + count, dtype=np.int64)
    out = np.empty((count, dim))
    for d, b in enumerate(_PRIMES[:dim]):
        low, size, scale = _halton_low(b)
        high, low_digits = np.divmod(idx, size)
        value = low[low_digits]
        first, top = start // size, (start + count - 1) // size
        n, rel = np.arange(first, top + 1), high - first
        while top > 0:  # one pass per base-b digit of the last high part
            n, digit = np.divmod(n, b)
            value += (digit * scale)[rel]
            top //= b
            scale /= b
        out[:, d] = value
    return out


@functools.cache
def _halton_low(b):
    """The sums of the low m base-b digits of every index below b^m, the
    largest b^m up to 4,096, added as ``halton`` adds digits; b^m; and the
    scale of digit m.  The running sum after m digits depends on them alone."""
    size = b
    while size * b <= 4096:
        size *= b
    n, value, scale = np.arange(size), np.zeros(size), 1.0 / b
    while n.any():
        n, digit = np.divmod(n, b)
        value += digit * scale
        scale /= b
    return value, size, scale


def interior_points(base, count, *, boundary_offset=0.0, start=1):
    """Quasi-random interior base points away from boundary and medial set.

    Points come from the Halton sequence over the bounding box, keeping
    those with distance to the boundary greater than ``boundary_offset``
    and distance to the singular set greater than the base's
    ``singular_band``.  The result is the first ``count`` kept points in
    sequence order.  Each batch draws the shortfall divided by the
    expected keep rate, plus a margin: the base's share of its box at
    first, the observed rate once a point is kept.
    """
    count = operator.index(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    lo, hi = base.bounding_box()
    rate = base.volume() / float(np.prod(hi - lo))
    picked = []
    have = 0
    cursor = start
    attempts = 0
    while have < count:
        m = max(math.ceil(_BATCH_MARGIN * (count - have) / rate), 1024)
        pts = to_box(halton(m, base.dim, start=cursor), lo, hi)
        cursor += m
        # Index gathers: a boolean-mask gather of these rows costs about 3.5x.
        sub = pts.take(np.flatnonzero(base.signed_distance(pts) > boundary_offset), axis=0)
        if len(sub):
            far = base.singular_set_distance(sub) > base.singular_band
            sub = sub.take(np.flatnonzero(far), axis=0)
            if len(sub):
                picked.append(sub)
                have += len(sub)
                rate = have / (cursor - start)
        attempts += 1
        if attempts > 200:
            raise RuntimeError("interior point rejection failed to fill quota")
    return np.concatenate(picked, axis=0)[:count]


def _base_uniform(base, count, philox):
    """Uniform points on the base by rejection from its bounding box.

    Chunk i of ``_CHUNK`` proposals reads ``philox.jumped(i)``.  Its unit
    draws are mapped onto the box in place, one coordinate column at a
    time (``to_box``), and the proposals inside the base are gathered by
    ``np.compress`` into the preallocated result.  Returns the first
    ``count`` kept points, the number of chunks drawn and the acceptance
    rate.
    """
    lo, hi = base.bounding_box()
    out = np.empty((count, base.dim))
    have = 0
    index = 0
    while have < count:
        gen = np.random.Generator(philox.jumped(index))
        index += 1
        pts = to_box(gen.random((_CHUNK, base.dim)), lo, hi)
        sub = np.compress(inside_mask(base, pts), pts, axis=0)[:count - have]
        out[have:have + len(sub)] = sub
        have += len(sub)
        if index > 100000:
            raise RuntimeError("rejection sampling failed to fill quota")
    return out, index, count / (index * _CHUNK)


def sample_surface(h, count, seed=0):
    """Uniform samples of the surface measure, as points in R^n.

    Base points are uniform on Ω by rejection; fiber directions are
    isotropic.  This realizes the surface measure because the area
    density over the base is constant for archimedean and cylinder
    warps; custom warps are rejected (their density is not constant and
    would need importance weights).
    """
    if not h.warp.constant_density:
        raise ValueError("custom warps have non-uniform base density; not supported")
    count = operator.index(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    philox = _philox(seed, 0x5A11)
    xb, jumps, _ = _base_uniform(h.base, count, philox)
    gen = np.random.Generator(philox.jumped(jumps + 1))
    dirs = gen.standard_normal((count, h.k))
    dirs /= row_norm(dirs)[:, None]
    return np.concatenate([xb, h.warping(xb)[:, None] * dirs], axis=1)


def random_regions(base, count, seed=0):
    """Seeded boxes and balls with centers in the base.

    Sizes are uniform in [0.05, 0.5] of the inradius, so every region
    has positive clipped volume.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    philox = _philox(seed, 0x9E91)
    centers, _, _ = _base_uniform(base, count, philox)
    gen = np.random.Generator(philox.jumped(50001))
    sizes = base.inradius() * gen.uniform(0.05, 0.5, size=count)
    kinds = gen.random(count) < 0.5
    out = []
    for c, s, is_box in zip(centers, sizes, kinds):
        if is_box:
            half = np.full(base.dim, s)
            out.append(Region.box(c - half, c + half))
        else:
            out.append(Region.ball(c, s))
    return out


@dataclass(slots=True)
class RegionScore:
    """Per-region comparison of observed and expected projection mass."""

    region: Region
    expected: float
    observed: float
    z: float
    expected_hits: float

    def as_dict(self):
        return {
            "region": self.region.describe(),
            "expected": self.expected,
            "observed": self.observed,
            "z": self.z,
        }


@dataclass
class StatReport:
    """Aggregate result of the projection goodness-of-fit test."""

    scores: list
    chi2: float
    dof: int
    p_value: float
    samples: int
    low_expected: list

    def max_abs_z(self):
        return max(abs(s.z) for s in self.scores)

    def count_large_z(self, threshold=Z_THRESHOLD):
        return sum(1 for s in self.scores if abs(s.z) > threshold)

    def passed(self, *, p_floor=P_FLOOR, z_threshold=Z_THRESHOLD,
               max_outliers=MAX_Z_OUTLIERS):
        return (
            self.p_value >= p_floor
            and self.count_large_z(z_threshold) <= max_outliers
            and not self.low_expected
        )

    def as_dict(self):
        return {
            "regions": [s.as_dict() for s in self.scores],
            "aggregate": {"chi2": self.chi2, "dof": self.dof, "p": self.p_value},
            "samples": self.samples,
            "low_expected_regions": self.low_expected,
        }


def _expected_fractions(h, regions):
    """Surface-measure mass of each region under the warp's area density.

    For archimedean and cylinder warps the density is constant, so the
    mass reduces to the clipped-volume fraction.  For custom warps the
    area integrand is evaluated by quadrature.
    """
    if not h.warp.constant_density:
        total = h.total_volume().value
        return [h.patch_volume(u) / total for u in regions]
    total = h.base.volume()
    return [u.clipped_volume(h.base) / total for u in regions]


def app_statistical_test(h, regions, samples, seed=0):
    """Score sampled base projections against the constant-factor law.

    Samples base-uniform surface points (all modes, including custom:
    this is the negative-control convention — for a warp without the
    projection property the uniform-base empirical fractions disagree
    with the surface-measure expectations and the test fails).

    The samples are put in order of a 16-bit bucket of their first
    coordinate (``_BUCKETS`` equal buckets across the base's bounding
    box) by one stable radix argsort.  A window's hits then lie in the
    contiguous run of whole buckets that covers its bounding box's
    first-coordinate bounds, widened by a few ulp (a ball's rounded
    ``d·d <= r²`` test can accept a point just outside ``center ±
    radius``), and ``contains`` decides each point of that run only.
    The bucket of a coordinate never decreases as the coordinate grows,
    so the run holds every sample between the widened bounds, and the
    counts equal those of ``contains`` over all samples.
    """
    samples = operator.index(samples)
    if not regions:
        raise ValueError("need at least one region")
    if samples < 1:
        raise ValueError("need at least one sample")
    expected = _expected_fractions(h, regions)
    philox = _philox(seed, 0x5A11)
    xb, _, _ = _base_uniform(h.base, samples, philox)
    lo, hi = h.base.bounding_box()
    scale = _BUCKETS / (hi[0] - lo[0])

    def bucket(x):
        x = x - lo[0]
        x *= scale
        return np.clip(x, 0, _BUCKETS - 1, out=x).astype(np.uint16)

    key = bucket(xb[:, 0])
    order = np.argsort(key, kind="stable")
    key = key.take(order)
    # Permute the samples in place, one coordinate column at a time; with
    # mode="clip" (the indices are in range) take writes straight into
    # ``column`` instead of buffering it.
    column = np.empty(len(xb))
    for j in range(xb.shape[1]):
        xb[:, j] = xb[:, j].take(order, out=column, mode="clip")
    del order, column
    bounds = np.array([[corner[0] for corner in u.bounding_box()] for u in regions])
    pad = _SLICE_ULPS * np.spacing(np.max(np.abs(bounds), axis=1))
    first = np.searchsorted(key, bucket(bounds[:, 0] - pad), side="left")
    last = np.searchsorted(key, bucket(bounds[:, 1] + pad), side="right")

    scores = []
    low = []
    chi2 = 0.0
    for i, (u, e) in enumerate(zip(regions, expected)):
        hits = int(np.count_nonzero(u.contains(xb[first[i]:last[i]])))
        mean = samples * e
        if mean < 100.0:
            low.append(i)
        spread = math.sqrt(max(samples * e * (1.0 - e), 1e-300))
        z = (hits - mean) / spread
        chi2 += z * z
        scores.append(RegionScore(u, e, hits / samples, z, mean))
    dof = len(regions)
    p_value = gamma_q(dof / 2.0, chi2 / 2.0)
    return StatReport(scores, chi2, dof, p_value, samples, low)

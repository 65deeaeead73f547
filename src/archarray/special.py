"""Scalar special functions used by every closed-form comparison.

The Gamma function and the incomplete Beta/Gamma functions are
implemented in-repo so the numeric kernel stays auditable end to end;
nothing here depends on scipy.  Accuracy is validated in the test suite
against stdlib ``math``, classical identities, and direct quadrature.
"""

import math
import warnings

import numpy as np

__all__ = [
    "gamma",
    "gamma_ln",
    "betainc_reg",
    "incomplete_beta",
    "gamma_q",
    "sphere_area",
    "ball_volume",
]

# Lanczos approximation with g = 607/128 and 15 coefficients.  This
# choice keeps the relative error a couple of digits below the 1e-13
# requirement across (0, 170).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _lanczos_sum(z):
    s = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        s += _LANCZOS_COEF[i] / (z + i)
    return s


def gamma(x):
    """Gamma function for real x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # The recurrence avoids evaluating the kernel near its shifted
        # pole; no reflection formula is needed on the positive axis.
        return gamma(x + 1.0) / x
    if x > 140.0:
        # t**(z+0.5) below overflows long before the value itself leaves
        # double range (first at x ~ 171.62).
        return math.exp(gamma_ln(x))
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * _lanczos_sum(z)


def gamma_ln(x):
    """Natural logarithm of Gamma(x) for real x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_ln requires x > 0, got {x!r}")
    if x < 0.5:
        return gamma_ln(x + 1.0) - math.log(x)
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return (
        0.5 * math.log(2.0 * math.pi)
        + (z + 0.5) * math.log(t)
        - t
        + math.log(_lanczos_sum(z))
    )


_TINY = 1e-300
_CF_EPS = 1e-16
_BETACF_CAP = 500


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz).

    Scalar parameters ``a``, ``b`` and an ndarray ``x``; callers must
    keep ``x`` below the symmetry split point (a+1)/(a+b+2).  Points
    not converged within ``_BETACF_CAP`` steps raise a RuntimeWarning.
    """
    x = np.asarray(x, dtype=float)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _TINY, _TINY, d)
    d = 1.0 / d
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, _BETACF_CAP + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        h = np.where(done, h, h * d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) < _CF_EPS
        if done.all():
            break
    else:
        warnings.warn(
            f"incomplete-beta continued fraction left {np.count_nonzero(~done)} of "
            f"{done.size} points unconverged after {_BETACF_CAP} steps",
            RuntimeWarning, stacklevel=2,
        )
    return h


def betainc_reg(p, q, z):
    """Regularized incomplete beta I_z(p, q).

    ``p`` and ``q`` are positive scalars; ``z`` may be a scalar or an
    ndarray with entries in [0, 1].  Returns a value of the same shape.
    """
    p = float(p)
    q = float(q)
    if p <= 0.0 or q <= 0.0:
        raise ValueError("beta parameters must be positive")
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if np.any(z_arr < -1e-12) or np.any(z_arr > 1.0 + 1e-12):
        raise ValueError("z must lie in [0, 1]")
    z_arr = np.clip(z_arr, 0.0, 1.0)

    out = np.empty_like(z_arr)
    at_zero = z_arr == 0.0
    at_one = z_arr == 1.0
    out[at_zero] = 0.0
    out[at_one] = 1.0
    interior = ~(at_zero | at_one)
    if np.any(interior):
        zi = z_arr[interior]
        res = np.empty_like(zi)
        ln_gam = gamma_ln(p + q) - gamma_ln(p) - gamma_ln(q)
        direct = zi * (p + q + 2.0) < p + 1.0
        for mask, aa, bb, flip in ((direct, p, q, False), (~direct, q, p, True)):
            if not np.any(mask):
                continue
            zz = zi[mask] if not flip else 1.0 - zi[mask]
            front = np.exp(ln_gam + aa * np.log(zz) + bb * np.log1p(-zz))
            val = front * _betacf(aa, bb, zz) / aa
            res[mask] = val if not flip else 1.0 - val
        out[interior] = res
    return float(out[0]) if scalar else out


def incomplete_beta(z, p, q):
    """Incomplete beta B(z; p, q) = integral of t^(p-1)(1-t)^(q-1) on [0, z].

    At z = 1 this returns the complete beta Gamma(p)Gamma(q)/Gamma(p+q).
    """
    ln_b = gamma_ln(p) + gamma_ln(q) - gamma_ln(p + q)
    return betainc_reg(p, q, z) * math.exp(ln_b)


def gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) for a = 1/2, 1, 3/2, ... and x >= 0.

    For such a, Q is a finite sum of positive terms (Abramowitz & Stegun
    26.4.4-26.4.5): e**-x times x**s / Gamma(s+1) summed over s = 0, 1,
    ..., a-1 for whole a, and erfc(sqrt(x)) plus that sum over s = 1/2,
    3/2, ..., a-1 otherwise.  Each term is the one before it times x/s.
    e**-x is applied in factors no smaller than e**-700 whenever a term
    reaches 1, and the rest at the end, so that neither large a nor deep
    tails overflow or underflow.  Any other a raises ``ValueError``.
    """
    a, x = float(a), float(x)
    if not (a > 0.0 and (2.0 * a).is_integer()):
        raise ValueError(f"shape parameter must be a positive multiple of 1/2, got {a!r}")
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be finite and nonnegative")
    if a.is_integer():
        s, head, term = 0.0, 0.0, 1.0
    else:
        s, head, term = 0.5, math.erfc(math.sqrt(x)), 2.0 * math.sqrt(x / math.pi)
    debt = x  # the part of e**-x not yet applied
    total = 0.0
    while s < a:
        while term >= 1.0 and debt > 0.0:
            step = min(debt, 700.0)  # e**-700 is a normal double
            factor = math.exp(-step)
            term *= factor
            total *= factor
            debt -= step
        total += term
        s += 1.0
        term *= x / s
    return head + total * math.exp(-debt)


def sphere_area(dim, radius=1.0):
    """dim-volume of the sphere S^dim(radius), the boundary of a ball in R^(dim+1).

    sphere_area(0) = 2 (two points), sphere_area(1) = 2*pi*r,
    sphere_area(2) = 4*pi*r^2, and so on.
    """
    if dim < 0:
        raise ValueError("sphere dimension must be nonnegative")
    m = dim + 1
    return 2.0 * math.pi ** (m / 2.0) / gamma(m / 2.0) * float(radius) ** dim


def ball_volume(dim, radius=1.0):
    """dim-volume of the solid ball B^dim(radius)."""
    if dim < 1:
        raise ValueError("ball dimension must be at least 1")
    return (
        2.0
        * math.pi ** (dim / 2.0)
        / (dim * gamma(dim / 2.0))
        * float(radius) ** dim
    )

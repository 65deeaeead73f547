"""Adaptive Gauss-Kronrod quadrature with endpoint desingularization.

The integrator is a 7-15 Gauss-Kronrod pair with recursive bisection.
Endpoints carrying an inverse-square-root singularity must be flagged by
the caller; the integral is then rewritten with t = a + s^2 (or
t = b - s^2), whose Jacobian 2s cancels the singular factor and leaves a
smooth integrand.  Kronrod nodes are interior, so the singular endpoint
itself is never evaluated.
"""

import warnings

import numpy as np

__all__ = ["QuadratureError", "integrate"]

# The tolerance is max(ABS_TOL, REL_TOL * |value|); a panel is bisected at
# most MAX_DEPTH times, and at most MAX_INTERVALS bisections are made.
REL_TOL = 1e-12
ABS_TOL = 1e-14
MAX_DEPTH = 60
MAX_INTERVALS = 50000

# 15-point Kronrod nodes on [-1, 1] and their weights; the embedded
# 7-point Gauss rule uses the odd-index nodes.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance was not reached.

    Carries the best value and the achieved error estimate so callers
    can still inspect the partial result.
    """

    def __init__(self, message, value, error_estimate):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def _eval(f, x):
    try:
        y = np.asarray(f(x), dtype=float)
    except (TypeError, ValueError):
        y = None
    if y is None or y.shape != x.shape:
        # Fall back for scalar-only integrands.
        y = np.array([float(f(xi)) for xi in x])
    return y


def _gk15(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = _eval(f, c + h * _XGK)
    if not np.all(np.isfinite(y)):
        raise ValueError(
            "integrand returned a non-finite value; flag singular endpoints"
        )
    kron = h * float(_WGK @ y)
    gauss = h * float(_WG @ y[1::2])
    return kron, abs(kron - gauss)


def _adapt(f, a, b, tol, depth, budget):
    value, err = _gk15(f, a, b)
    if err <= tol or depth >= MAX_DEPTH or budget[0] <= 0:
        return value, err
    budget[0] -= 1
    mid = 0.5 * (a + b)
    v1, e1 = _adapt(f, a, mid, 0.5 * tol, depth + 1, budget)
    v2, e2 = _adapt(f, mid, b, 0.5 * tol, depth + 1, budget)
    return v1 + v2, e1 + e2


def _integrate_plain(f, a, b):
    first, _ = _gk15(f, a, b)
    tol = max(ABS_TOL, REL_TOL * abs(first))
    return _adapt(f, a, b, tol, 0, [MAX_INTERVALS])


def integrate(f, a, b, *, singular_left=False, singular_right=False):
    """Integrate ``f`` over [a, b] to the module tolerances.

    The integrand should accept an ndarray of abscissae and return the
    matching ndarray of values (scalar-only callables are handled at a
    cost).  ``singular_left``/``singular_right`` declare an integrable
    inverse-square-root blowup at the corresponding endpoint.

    The tolerance is max(ABS_TOL, REL_TOL * |value|).  An error estimate
    above it but within ten times it is accepted with a ``RuntimeWarning``;
    a larger one raises ``QuadratureError``.
    """
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, singular_left=singular_right,
                          singular_right=singular_left)

    if singular_left and singular_right:
        mid = 0.5 * (a + b)
        return (
            integrate(f, a, mid, singular_left=True)
            + integrate(f, mid, b, singular_right=True)
        )
    if singular_left:
        width = np.sqrt(b - a)
        g = lambda s: 2.0 * s * _eval(f, a + s * s)
        value, err = _integrate_plain(g, 0.0, width)
    elif singular_right:
        width = np.sqrt(b - a)
        g = lambda s: 2.0 * s * _eval(f, b - s * s)
        value, err = _integrate_plain(g, 0.0, width)
    else:
        value, err = _integrate_plain(f, a, b)

    tol = max(ABS_TOL, REL_TOL * abs(value))
    if err > 10.0 * tol:
        raise QuadratureError(
            f"quadrature did not converge: estimate {value!r} with error "
            f"estimate {err:.3e}",
            value,
            err,
        )
    if err > tol:
        warnings.warn(
            f"quadrature accepted estimate {value!r} with error estimate "
            f"{err:.3e} above the tolerance {tol:.3e}",
            RuntimeWarning, stacklevel=2,
        )
    return value

"""The codimension-k Archimedean scaling profile.

For integer k >= 2 the profile g maps [0, M_k] onto [0, 1] and is
defined through its inverse

    g^{-1}(y) = integral_0^y t^(k-1) / sqrt(1 - t^(2k-2)) dt,

so that the graph surface it generates projects with a constant volume
factor.  Substituting u = t^(2k-2) turns the inverse into an incomplete
beta, giving the closed forms used throughout:

    g^{-1}(y) = M_k * I(y^(2k-2); p, 1/2),   p = k/(2k-2),
    M_k       = sqrt(pi)/(2k-2) * Gamma(p) / Gamma(p + 1/2).

k = 2 reproduces the quarter circle g(x) = sqrt(2x - x^2) with M_2 = 1.

The profile satisfies y^(2k-2) * (1 + y'^2) = 1.  Near x = M_k all odd
derivatives vanish and g has an even Taylor expansion, which is used as
the evaluation path inside ``series_radius_guard`` of M_k; elsewhere
evaluation inverts g^{-1} with a table-seeded safeguarded Newton that
converges per point: each point stops on its own step test, so its value
does not depend on the batch it is evaluated in.  A zero Newton step is
convergence, not a bracket violation; only a step that leaves the open
bracket any other way falls back to bisection.  One inversion serves
both g and g', which is derived from y through the profile relation.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate
from .special import betainc_reg, gamma

__all__ = [
    "ScalingFunction",
    "make_scaling",
    "mk_closed_form",
    "mk_quadrature",
]

TABLE_SIZE = 4096
GUARD_FRACTION = 0.25
# First omitted series term must stay below this at the guard radius.
_SERIES_TAIL_TOL = 1e-12
_MAX_SERIES_TERMS = 32
_MIN_SERIES_TERMS = 4
_NEWTON_CAP = 100
_BRACKET_WIDTH = 1e-3


def _beta_p(k):
    return k / (2.0 * k - 2.0)


def mk_closed_form(k):
    """Half-width M_k of the profile domain, in closed form."""
    _check_k(k)
    p = _beta_p(k)
    return math.sqrt(math.pi) / (2.0 * k - 2.0) * gamma(p) / gamma(p + 0.5)


def mk_quadrature(k, spec=DEFAULT_SPEC):
    """M_k by direct adaptive quadrature of the defining integral."""
    _check_k(k)
    e = 2 * k - 2

    def integrand(t):
        return t ** (k - 1) / np.sqrt(1.0 - t ** e)

    return integrate(integrand, 0.0, 1.0, spec, singular_right=True)


def _check_k(k):
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")


def _pmul(a, b, nmax):
    """Product of polynomials (coefficient lists), truncated at degree nmax."""
    out = np.zeros(nmax + 1)
    for i, ai in enumerate(a):
        if i > nmax or ai == 0.0:
            continue
        top = min(len(b), nmax - i + 1)
        out[i:i + top] += ai * np.asarray(b[:top])
    return out


def _series_residual_coef(c, k, j):
    """Coefficient of u^j in Y^(2k-2) (1 + u D^2) - 1.

    Everything is expressed in u = (x - M_k)^2: Y(u) = sum c_i u^i is
    the profile and D(u) = sum 2 i c_i u^(i-1) is y'(t)/t.
    """
    ypow = np.zeros(j + 1)
    ypow[0] = 1.0
    for _ in range(2 * k - 2):
        ypow = _pmul(ypow, c, j)
    d = np.array([2.0 * i * c[i] for i in range(1, len(c))])
    d2 = _pmul(d, d, j)
    # u * D(u)^2 shifts degrees up by one.
    ud2 = np.zeros(j + 1)
    ud2[1:] = d2[:j]
    total = ypow + _pmul(ypow, ud2, j)
    return total[j]


def _next_coefficient(c, k):
    """The next even-series coefficient given c_0..c_(j-1).

    Order one is quadratic in the unknown (the constant profile y = 1
    solves the relation too) and is fixed to the nontrivial root
    c_1 = -(k-1)/2.  Every later order enters the relation linearly, so
    two trial evaluations of the order-j residual determine it.
    """
    j = len(c)
    if j == 1:
        return -(k - 1) / 2.0
    r0 = _series_residual_coef(c + [0.0], k, j)
    r1 = _series_residual_coef(c + [1.0], k, j)
    if not (math.isfinite(r0) and math.isfinite(r1)) or r1 == r0:
        raise ValueError(
            f"series coefficient recursion lost precision at order {2 * j} "
            f"for k={k}; request fewer taylor_terms"
        )
    return -r0 / (r1 - r0)


def _series_coefficients(k, terms):
    """Coefficients c_j = g^(2j)(M_k)/(2j)! for j = 0..terms."""
    c = [1.0]
    for _ in range(terms):
        c.append(_next_coefficient(c, k))
    return np.array(c)


@dataclass(frozen=True, eq=False)
class ScalingFunction:
    """Evaluable Archimedean scaling profile for one codimension k."""

    k: int
    m_k: float
    y_table: np.ndarray = field(repr=False)
    x_table: np.ndarray = field(repr=False)
    taylor: np.ndarray = field(repr=False)
    series_radius_guard: float

    @property
    def inverse_table(self):
        """The (y, x) node pairs used to seed inversion, shape (N, 2)."""
        return np.column_stack([self.y_table, self.x_table])

    # -- inverse profile ------------------------------------------------

    def f_inverse(self, y):
        """x with g(x) = y, evaluated through the incomplete-beta identity."""
        y_arr, scalar = _prep(y)
        if np.any(y_arr < -1e-12) or np.any(y_arr > 1.0 + 1e-12):
            raise ValueError("f_inverse argument must lie in [0, 1]")
        y_arr = np.clip(y_arr, 0.0, 1.0)
        x = self.m_k * betainc_reg(_beta_p(self.k), 0.5, y_arr ** (2 * self.k - 2))
        x = np.where(y_arr >= 1.0, self.m_k, x)
        return _unprep(x, scalar)

    # -- forward profile ------------------------------------------------

    def f(self, x):
        """Profile value g(x) for x in [0, m_k]; exactly 0 at x = 0."""
        return self._f_pair(x, slope=False)[0]

    def f_prime(self, x):
        """dg/dx, from sqrt(1 - y^(2k-2))/y^(k-1) away from m_k and from
        the differentiated series inside the guard; diverges at x = 0."""
        return self._f_pair(x)[1]

    def _f_pair(self, x, *, slope=True):
        """(g(x), g'(x)) from one evaluation of g per point.

        With ``slope`` x must lie in (0, m_k]; without it x may be 0 and
        the second entry is None.
        """
        x_arr, scalar = _prep(x)
        tol = 1e-12 * max(1.0, self.m_k)
        below = x_arr <= 0.0 if slope else x_arr < -tol
        if np.any(below) or np.any(x_arr > self.m_k + tol):
            name, left = ("f_prime", "(") if slope else ("f", "[")
            raise ValueError(f"{name} argument must lie in {left}0, {self.m_k!r}]")
        x_arr = np.clip(x_arr, 0.0, self.m_k)
        y = np.empty_like(x_arr)
        yp = np.empty_like(x_arr) if slope else None
        near = self.m_k - x_arr <= self.series_radius_guard
        if np.any(near):
            y[near] = self._f_series(x_arr[near])
            if slope:
                t = x_arr[near] - self.m_k
                yp[near] = t * self.series_prime_ratio(t)
        if np.any(~near):
            yf = self._f_root(x_arr[~near])
            y[~near] = yf
            if slope:
                e = 2 * self.k - 2
                yp[~near] = np.sqrt(np.clip(1.0 - yf ** e, 0.0, None)) / yf ** (self.k - 1)
        return _unprep(y, scalar), (_unprep(yp, scalar) if slope else None)

    def _f_series(self, x):
        """Even Taylor expansion about m_k; valid within the guard radius."""
        u = (x - self.m_k) ** 2
        acc = np.zeros_like(u)
        for cj in self.taylor[::-1]:
            acc = acc * u + cj
        return np.minimum(acc, 1.0)

    def _f_root(self, x):
        """Invert f_inverse by bracketed Newton seeded from the node table.

        Convergence is per point: a point leaves the active set once its
        step passes |dy| <= 1e-16 + 1e-15 y, so its value is the same in
        any batch.  A zero step is accepted as convergence.  Any other
        step that is not finite or not strictly inside the bracket
        (lo, hi) is replaced by bisection: landing on the far end, which
        is already evaluated, would let rounding noise in g^{-1} cycle
        between two neighbouring floats.  x = 0 maps to exactly 0.
        Points still moving after ``_NEWTON_CAP`` steps keep their last
        iterate and raise a RuntimeWarning.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        act = np.flatnonzero(x > 0.0)
        xa = x[act]
        idx = np.clip(np.searchsorted(self.x_table, xa, side="right") - 1,
                      0, len(self.x_table) - 2)
        lo = self.y_table[idx]
        hi = self.y_table[idx + 1]
        # The Chebyshev table already brackets tighter than the required
        # width; bisect only if a coarser table was requested.
        wide = np.flatnonzero(hi - lo > _BRACKET_WIDTH)
        while wide.size:
            mid = 0.5 * (lo[wide] + hi[wide])
            low_side = self._raw_inverse(mid) < xa[wide]
            lo[wide] = np.where(low_side, mid, lo[wide])
            hi[wide] = np.where(low_side, hi[wide], mid)
            wide = wide[hi[wide] - lo[wide] > _BRACKET_WIDTH]
        y = 0.5 * (lo + hi)
        e = 2 * self.k - 2
        for _ in range(_NEWTON_CAP):
            if not act.size:
                break
            g = self._raw_inverse(y) - xa
            low_side = g < 0.0
            lo = np.where(low_side, y, lo)
            hi = np.where(low_side, hi, y)
            deriv = y ** (self.k - 1) / np.sqrt(np.clip(1.0 - y ** e, 1e-300, None))
            with np.errstate(divide="ignore", invalid="ignore"):
                y_new = y - g / deriv
            bad = ~np.isfinite(y_new) | (((y_new <= lo) | (y_new >= hi)) & (y_new != y))
            y_new = np.where(bad, 0.5 * (lo + hi), y_new)
            done = np.abs(y_new - y) <= 1e-16 + 1e-15 * y_new
            out[act[done]] = y_new[done]
            keep = ~done
            act, xa, y, lo, hi = act[keep], xa[keep], y_new[keep], lo[keep], hi[keep]
        if act.size:
            warnings.warn(
                f"profile inversion left {act.size} of {x.size} points "
                f"unconverged after {_NEWTON_CAP} Newton steps",
                RuntimeWarning, stacklevel=2,
            )
            out[act] = y
        return out

    def _raw_inverse(self, y):
        return self.m_k * betainc_reg(_beta_p(self.k), 0.5, y ** (2 * self.k - 2))

    def series_prime_ratio(self, t):
        """g'(m_k + t)/t for |t| <= guard: the even series sum 2j c_j t^(2j-2).

        Finite (and negative) at t = 0; used to assemble warp gradients
        across the smooth cap without a 0/0.
        """
        u = np.asarray(t, dtype=float) ** 2
        acc = np.zeros_like(u)
        for j in range(len(self.taylor) - 1, 0, -1):
            acc = acc * u + 2.0 * j * self.taylor[j]
        return acc

    # -- series data ----------------------------------------------------

    def taylor_at_mk(self, order):
        """Coefficients g^(2j)(m_k)/(2j)! for 2j <= order, as a list.

        Orders beyond the constructed expansion raise rather than
        extrapolate; rebuild with ``make_scaling(k, taylor_terms=...)``
        if deeper coefficients are needed.
        """
        if order % 2 != 0 or order < 0:
            raise ValueError("order must be a nonnegative even integer")
        terms = order // 2
        if terms >= len(self.taylor):
            raise ValueError(
                f"order {order} exceeds the constructed series "
                f"(max {2 * (len(self.taylor) - 1)})"
            )
        return [float(c) for c in self.taylor[: terms + 1]]

    def defining_residual(self, x):
        """Residual y^(2k-2) + y^(2k-4) (y y')^2 - 1 of the profile relation."""
        y, yp = self._f_pair(x)
        e = 2 * self.k - 2
        return y ** e + y ** (e - 2) * (y * yp) ** 2 - 1.0


def _prep(x):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr).astype(float), scalar


def _unprep(arr, scalar):
    return float(arr[0]) if scalar else arr


_CACHE = {}


def make_scaling(k, spec=DEFAULT_SPEC, *, table_size=TABLE_SIZE,
                 guard_fraction=GUARD_FRACTION, taylor_terms=None):
    """Build the scaling profile for codimension k.

    The builder computes M_k both by adaptive quadrature of the defining
    integral and from the Gamma-function closed form, and refuses to
    construct if they disagree beyond 1e-8 relative.  It also
    cross-checks the incomplete-beta inversion route against direct
    quadrature on a y-grid that includes the singular endpoint y = 1.
    """
    _check_k(k)
    if not isinstance(spec, QuadratureSpec):
        raise TypeError("spec must be a QuadratureSpec")
    key = (int(k), spec, table_size, guard_fraction, taylor_terms)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit

    m_closed = mk_closed_form(k)
    m_quad = mk_quadrature(k, spec)
    if abs(m_quad - m_closed) > 1e-8 * m_closed:
        raise ValueError(
            f"M_k paths disagree for k={k}: quadrature {m_quad!r} vs "
            f"closed form {m_closed!r}"
        )
    m_k = m_closed
    guard = guard_fraction * m_k

    if taylor_terms is None:
        # Grow the expansion until the first omitted term is negligible
        # at the guard radius.
        c = [1.0]
        while True:
            nxt = _next_coefficient(c, k)
            if (len(c) > _MIN_SERIES_TERMS
                    and abs(nxt) * guard ** (2 * len(c)) < _SERIES_TAIL_TOL):
                break
            c.append(nxt)
            if len(c) > _MAX_SERIES_TERMS:
                raise ValueError(
                    f"series guard {guard!r} too wide for a "
                    f"{_MAX_SERIES_TERMS}-term expansion; reduce guard_fraction"
                )
        coef = np.array(c)
    else:
        if taylor_terms < 1 or taylor_terms > _MAX_SERIES_TERMS:
            raise ValueError("taylor_terms out of range")
        coef = _series_coefficients(k, taylor_terms)

    if table_size < 8:
        raise ValueError("table_size too small")
    i = np.arange(table_size)
    y_nodes = 0.5 * (1.0 - np.cos(np.pi * i / (table_size - 1)))
    y_nodes[0] = 0.0
    y_nodes[-1] = 1.0
    x_nodes = m_k * betainc_reg(_beta_p(k), 0.5, y_nodes ** (2 * k - 2))
    x_nodes[0] = 0.0
    x_nodes[-1] = m_k
    if np.any(np.diff(x_nodes) <= 0.0):
        raise ValueError("inverse table failed to be strictly increasing")

    s = ScalingFunction(
        k=int(k),
        m_k=m_k,
        y_table=y_nodes,
        x_table=x_nodes,
        taylor=coef,
        series_radius_guard=guard,
    )

    # Dual-route check of the inversion integral itself.
    e = 2 * k - 2
    for y in (0.25, 0.5, 0.75, 0.95, 1.0):
        direct = integrate(
            lambda t: t ** (k - 1) / np.sqrt(1.0 - t ** e),
            0.0,
            y,
            spec,
            singular_right=(y == 1.0),
        )
        if abs(direct - s.f_inverse(y)) > 1e-10 * max(1.0, m_k):
            raise ValueError(
                f"inversion routes disagree for k={k} at y={y}: "
                f"quadrature {direct!r} vs beta {s.f_inverse(y)!r}"
            )

    if key[2] == TABLE_SIZE and key[3] == GUARD_FRACTION and taylor_terms is None:
        _CACHE[key] = s
    return s

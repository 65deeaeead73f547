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
the evaluation path inside ``series_radius_guard`` of M_k, with exact
rational coefficients each rounded once (``_even_series``).  Elsewhere g
is a piecewise quintic Hermite interpolant of y(x) on a Chebyshev node
table (de Boor, A Practical Guide to Splines, 1978): on each bracket it
matches y, y' = sqrt(1 - y^(2k-2))/y^(k-1) and, from the derivative of
the profile relation, y'' = -(k-1)/y^(2k-1) at both nodes.  Its error
is at most max|y^(6)| h^6/46080 on a bracket of width h.  Every
derivative of y is a polynomial in 1/y, times y' for odd orders, so the
sum of the absolute terms of y^(6) at the left node bounds it.  A
bracket is trusted where that bound is below rounding, both of y and of
M_k in x.  For every k the other brackets are one run from x = 0, where
the power law y ~ (kx)^(1/k) spoils the polynomial, and brackets inside
the guard; the builder refuses a table with any other.  On that low run
g comes from the binomial series of its inverse: with u = y^(2k-2),

    g^{-1}(y) = (y^k/k) A(u),   A(u) = sum_j binom(2j, j)/4^j k/(k + j(2k-2)) u^j,

reverted (Lagrange-Buermann) to y = v (1 + sum_(j>=1) b_j w^j) in
v = (kx)^(1/k) and w = v^(2k-2), with b_j = [u^j] A^(-s_j/k) / s_j,
s_j = 1 + j(2k-2).  w stays below 1.1e-3 on the run, so a few terms
reach rounding (``_low_series``).  No forward value takes an incomplete
beta, and each point is answered on its own, so its value does not
depend on its batch.  One evaluation serves both g and g', which is
derived from y through the profile relation.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .quadrature import integrate
from .special import betainc_reg, gamma

__all__ = [
    "ScalingFunction",
    "make_scaling",
    "mk_closed_form",
    "mk_quadrature",
]

TABLE_SIZE = 4096
_GUIDE_BUCKETS, _GUIDE_STEPS = 1 << 14, 2  # see _guide_table
GUARD_FRACTION = 0.25
_LOW_W_MAX = 2.0 ** -6  # reach of the low series in w; the default table needs 1.07e-3
# Margin, in units of m_k, by which at_most_by_nodes widens a node bracket.
_NODE_PAD = 1e-12
# Relative rounding of a float64: half an ulp of 1; the smallest normal float.
_EPS, _TINY = 2.0 ** -53, np.finfo(float).tiny


def _beta_p(k):
    return k / (2.0 * k - 2.0)


def mk_closed_form(k):
    """Half-width M_k of the profile domain, in closed form."""
    _check_k(k)
    p = _beta_p(k)
    return math.sqrt(math.pi) / (2.0 * k - 2.0) * gamma(p) / gamma(p + 0.5)


def mk_quadrature(k):
    """M_k by direct adaptive quadrature of the defining integral."""
    _check_k(k)
    if k > _MAX_K_QUADRATURE:
        raise ValueError(f"mk_quadrature takes k up to {_MAX_K_QUADRATURE}, got {k}")
    return _inverse_quadrature(k, 1.0)


def _inverse_quadrature(k, y):
    """g^{-1}(y) by adaptive quadrature of the defining integral."""
    return integrate(lambda t: t ** (k - 1) / np.sqrt(1.0 - t ** (2 * k - 2)), 0.0, y,
                     singular_right=y == 1.0)


# The largest k whose profile builds: from k = 25 on, the node table's
# inverse is not strictly increasing.  The largest k mk_quadrature takes:
# from k = 43 on, the M_k quadrature meets a non-finite integrand.
_MAX_K, _MAX_K_QUADRATURE = 24, 42


def _check_k(k):
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")


def _even_series(k, guard, extra=0):
    """Coefficients c_j of the even series g(m_k + t) = sum c_j t^(2j).

    Differentiating the profile relation gives y'' = -(k-1) y^(1-2k) with
    y(m_k) = 1, y'(m_k) = 0.  With y = sum a_j u^j in u = t^2 and
    y^(1-2k) = sum w_j u^j, J. C. P. Miller's power recurrence (Knuth,
    TAOCP vol. 2, 4.7) gives m w_m = sum_(i=1..m) ((2-2k) i - m) a_i w_(m-i),
    and the t^(2m) terms of the equation give (2m+2)(2m+1) a_(m+1) =
    -(k-1) w_m, all in exact rationals; each c_j is a_j rounded once.  The
    series ends with the first c_j (after c_1, which y' needs however
    narrow the guard) whose term at the guard radius is below a quarter of
    rounding, and ``extra`` more, so the guard must lie inside the radius
    of convergence (at most m_k: y(0) = 0).
    """
    a, w, stop = [Fraction(1)], [], None
    for m in itertools.count():
        mw = sum(((2 - 2 * k) * i - m) * a[i] * w[m - i] for i in range(1, m + 1))
        w.append(mw / m if m else Fraction(1))
        a.append((1 - k) * w[m] / ((2 * m + 2) * (2 * m + 1)))
        if stop is None and m and abs(float(a[-1])) * guard ** (2 * m + 2) < _EPS / 4:
            stop = m + extra
        if m == stop:
            return np.array([float(c) for c in a])


def _low_series(k, w_end):
    """b_1, b_2, ... of the low series (module docstring) up to the first
    term below a quarter of rounding at ``w_end``; A^s by Miller's power
    recurrence, in floats: every term past b_0 = 1 is below w <= 2^-6."""
    e = 2 * k - 2
    a, b = [1.0], []
    while not b or abs(b[-1]) * w_end ** len(b) >= _EPS / 4:
        n = len(a)
        a.append(a[-1] * (2 * n - 1) / (2 * n) * (k + (n - 1) * e) / (k + n * e))
        s, p = -(1 + n * e) / k, [1.0]
        for m in range(1, n + 1):
            p.append(sum(((s + 1) * i - m) * a[i] * p[m - i] for i in range(1, m + 1)) / m)
        b.append(p[n] / (1 + n * e))
    return np.array(b)


@dataclass(frozen=True, eq=False)
class ScalingFunction:
    """Evaluable Archimedean scaling profile for one codimension k."""

    k: int
    m_k: float
    y_table: np.ndarray = field(repr=False)
    x_table: np.ndarray = field(repr=False)
    hermite: np.ndarray = field(repr=False)
    low_end: float
    low_series: np.ndarray = field(repr=False)
    x_guide: np.ndarray = field(repr=False)
    y_guide: np.ndarray = field(repr=False)
    taylor: np.ndarray = field(repr=False)
    prime_ratio: np.ndarray = field(repr=False)
    series_radius_guard: float

    # -- inverse profile ------------------------------------------------

    def f_inverse(self, y):
        """x with g(x) = y, evaluated through the incomplete-beta identity."""
        y_arr, scalar = _prep(y)
        if np.any(y_arr < -1e-12) or np.any(y_arr > 1.0 + 1e-12):
            raise ValueError("f_inverse argument must lie in [0, 1]")
        y_arr = np.clip(y_arr, 0.0, 1.0)
        x = np.where(y_arr >= 1.0, self.m_k, self._raw_inverse(y_arr))
        return _unprep(x, scalar)

    def at_most_by_nodes(self, y, x):
        """For float arrays y in [0, 1] and x, the mask of the sure hits of
        ``f_inverse(y) <= x`` and the indices of the points left unsure.

        f_inverse is monotone, so the table nodes bracketing y bound it:
        x at or above the upper node's value plus a pad is a hit and x
        below the lower node's value minus the pad a miss.  The pad,
        1e-12 m_k, is far above the non-monotone rounding noise of
        f_inverse (about 1.2e-15 m_k over neighbouring ulp of y), so
        inverting the unsure points completes the comparison exactly.
        f_inverse works per element: unsure points may be batched.
        """
        i = self._y_bracket(y)
        pad = _NODE_PAD * self.m_k
        out = x >= self.x_table[i + 1] + pad
        return out, np.flatnonzero(~out & (x >= self.x_table[i] - pad))

    def _y_bracket(self, y):
        """Index i of the node bracket [y_i, y_(i+1)) holding each y in [0, 1]."""
        return _bracket(self.y_table, self.y_guide, y)

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
        the second entry is None.  A batch with no point in the series
        guard goes through ``_f_root`` whole, with no gather or scatter.
        """
        x_arr, scalar = _prep(x)
        tol = 1e-12 * max(1.0, self.m_k)
        inside = x_arr > 0.0 if slope else x_arr >= -tol
        if not np.all(inside & (x_arr <= self.m_k + tol)):  # NaN is outside too
            name, left = ("f_prime", "(") if slope else ("f", "[")
            raise ValueError(f"{name} argument must lie in {left}0, {self.m_k!r}]")
        x_arr = np.clip(x_arr, 0.0, self.m_k)
        near = self.m_k - x_arr <= self.series_radius_guard
        if not near.any():
            y = self._f_root(x_arr)
            return _unprep(y, scalar), (_unprep(self._root_slope(y), scalar) if slope else None)
        y = np.empty_like(x_arr)
        yp = np.empty_like(x_arr) if slope else None
        t = x_arr[near] - self.m_k
        y[near] = self._f_series(t)
        if slope:
            yp[near] = t * self.series_prime_ratio(t)
        if (far := ~near).any():
            y[far] = self._f_root(x_arr[far])
            if slope:
                yp[far] = self._root_slope(y[far])
        return _unprep(y, scalar), (_unprep(yp, scalar) if slope else None)

    def _root_slope(self, y):
        """g' = sqrt(1 - y^(2k-2))/y^(k-1), from the profile relation."""
        return np.sqrt(np.clip(1.0 - y ** (2 * self.k - 2), 0.0, None)) / y ** (self.k - 1)

    def _f_series(self, t):
        """g(m_k + t) from the even Taylor expansion; valid for |t| <= guard."""
        return np.minimum(_horner(self.taylor, t * t), 1.0)

    def _f_root(self, x):
        """g(x) for x in [0, m_k]: below ``low_end`` the reverted low series,
        elsewhere the quintic Hermite of the node bracket (module docstring),
        which a guide table finds (``_bracket``).  x = 0 maps to exactly 0.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = _bracket(self.x_table, self.x_guide, x)
        x0 = self.x_table[idx]
        t = x - x0
        t /= self.x_table[idx + 1] - x0
        out = self.hermite[5, idx]
        for row in self.hermite[4::-1]:
            out *= t
            out += row[idx]
        low = np.flatnonzero(x < self.low_end)
        if low.size:
            out[low] = self._f_low(x[low])
        return out

    def _f_low(self, x):
        """y = v (1 + sum b_j w^j), v = (kx)^(1/k), w = v^(2k-2)."""
        k, z = self.k, self.k * x
        v = z ** (1.0 / k)
        # One Newton step on v^k = z drops the rounding of 1/k, scaled by |ln z|.
        v -= v * ((v ** k - z) / np.maximum(z, _TINY)) / k
        w = v ** (2 * k - 2)
        return v + v * (w * _horner(self.low_series, w))

    def _raw_inverse(self, y):
        return self.m_k * betainc_reg(_beta_p(self.k), 0.5, y ** (2 * self.k - 2))

    def series_prime_ratio(self, t):
        """g'(m_k + t)/t for |t| <= guard: the even series sum 2j c_j t^(2j-2),
        summed one term past the value's cut, which alone falls 3 ulp short.

        Finite (and negative) at t = 0; used to assemble warp gradients
        across the smooth cap without a 0/0.
        """
        return _horner(self.prime_ratio, np.asarray(t, dtype=float) ** 2)

    # -- series data ----------------------------------------------------

    def taylor_at_mk(self, order):
        """Coefficients g^(2j)(m_k)/(2j)! for 2j <= order, as a list.

        Orders beyond the constructed expansion raise rather than
        extrapolate.  The expansion ends with the first coefficient whose
        term at the guard radius is below a quarter of rounding.
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


def _horner(coef, u):
    """sum coef[j] u^j."""
    acc = np.zeros_like(u)
    for c in coef[::-1]:
        acc = acc * u + c
    return acc


def _prep(x):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _unprep(arr, scalar):
    return float(arr[0]) if scalar else arr


def _bucket(v, top, buckets):
    """floor(v buckets/top) within the table; it never decreases with v."""
    return np.clip(v * (buckets / top), 0, buckets - 1).astype(np.intp)


def _guide_table(nodes):
    """Guide table over [0, nodes[-1]] (Chen and Asau, 1974): a bracket counts
    the inner nodes at or below a point, a bucket's entry those of lower
    buckets (all below, as buckets never decrease), a step each own node.
    Crowded buckets (over ``_GUIDE_STEPS`` nodes) and the top one read -1."""
    below = np.searchsorted(_bucket(nodes[1:-1], nodes[-1], _GUIDE_BUCKETS),
                            np.arange(_GUIDE_BUCKETS + 1))
    crowded = np.append(np.diff(below)[:-1] > _GUIDE_STEPS, True)
    return np.where(crowded, -1, below[:-1])


def _bracket(nodes, guide, v):
    """``searchsorted(nodes, v, "right") - 1`` within the brackets, for
    v >= 0, from the guide table; only crowded buckets are searched."""
    idx = guide[_bucket(v, nodes[-1], len(guide))]
    crowded = np.flatnonzero(idx < 0)
    for _ in range(_GUIDE_STEPS):
        idx += nodes[idx + 1] <= v
    idx[crowded] = np.searchsorted(nodes[1:-1], v[crowded], side="right")
    return idx


def _quintic_table(k, m_k, x, y):
    """Row j: the t^j coefficient of the quintic Hermite of y(x) on each
    node bracket, t = (x - x_i)/h_i; and the mask of trusted brackets,
    whose remainder bound (module docstring) is below eps y_i and below
    eps m_k y'_(i+1).  The first bracket, where y'(0) is infinite, never is.
    """
    e = 2 * k - 2
    # Coefficients of v^0..v^(n-1), v = 1/y: y'' = F, y'^2 = G, d/dy v^m = -m v^(m+1), and d/dx
    # takes A to A_y y' and B y' to B_y G + B F: y^(5) = b5 y', and d6 bounds y^(6).
    n = 6 * k
    F = np.zeros(n)
    F[e + 1] = 1.0 - k
    G = np.zeros(n)
    G[[0, e]] = -1.0, 1.0

    def dy(c):
        return np.concatenate([[0.0], -np.arange(n - 1) * c[:-1]])

    def mul(a, b):
        return np.convolve(a, b)[:n]

    b5 = dy(mul(dy(dy(F)), G) + mul(dy(F), F))
    d6 = np.abs(mul(dy(b5), G) + mul(b5, F))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = np.sqrt(1.0 - y ** e) / y ** (k - 1)
        d2 = (1.0 - k) / y ** (e + 1)
        h = np.diff(x)
        s0, s1 = h * d1[:-1], h * d1[1:]
        c0, c1 = h * h * d2[:-1], h * h * d2[1:]
        r = np.diff(y)
        coef = np.array([
            y[:-1], s0, 0.5 * c0,
            10.0 * r - 6.0 * s0 - 4.0 * s1 - 1.5 * c0 + 0.5 * c1,
            -15.0 * r + 8.0 * s0 + 7.0 * s1 + 1.5 * c0 - c1,
            6.0 * r - 3.0 * s0 - 3.0 * s1 - 0.5 * c0 + 0.5 * c1,
        ])
        bound = np.polyval(d6[::-1], 1.0 / y[:-1]) * h ** 6 / 46080.0
    return coef, bound <= _EPS * np.minimum(y[:-1], m_k * d1[1:])


def make_scaling(k):
    """The scaling profile for codimension k, built once per k.

    The node table has ``TABLE_SIZE`` Chebyshev nodes in y and the series
    guard is ``GUARD_FRACTION`` of M_k; both are read when a k is first
    built.  The builder computes M_k both by adaptive quadrature of the
    defining integral and from the Gamma-function closed form, and
    refuses to construct if they disagree beyond 1e-8 relative.  It also
    cross-checks the incomplete-beta inversion route against direct
    quadrature on a y-grid that includes the singular endpoint y = 1.  It
    refuses a table with a bracket below the guard that neither the quintic
    nor the low series answers to rounding (a coarse ``TABLE_SIZE``, or a
    guard too narrow to hold the brackets at M_k).  k runs from 2 to 24,
    the largest codimension whose profile builds.
    """
    _check_k(k)
    if k > _MAX_K:
        raise ValueError(f"k must be at most {_MAX_K}, the largest codimension "
                         f"whose profile builds; got {k}")
    return _build(int(k))


def _nodes(k, m_k, size):
    """The node table: ``size`` Chebyshev nodes y_i on [0, 1] and x_i = g^{-1}(y_i)."""
    y = 0.5 * (1.0 - np.cos(np.pi * np.arange(size) / (size - 1)))
    y[[0, -1]] = 0.0, 1.0
    x = m_k * betainc_reg(_beta_p(k), 0.5, y ** (2 * k - 2))
    x[[0, -1]] = 0.0, m_k
    return y, x


@functools.cache
def _build(k):
    m_closed = mk_closed_form(k)
    m_quad = mk_quadrature(k)
    if abs(m_quad - m_closed) > 1e-8 * m_closed:
        raise ValueError(
            f"M_k paths disagree for k={k}: quadrature {m_quad!r} vs "
            f"closed form {m_closed!r}"
        )
    m_k = m_closed
    guard = GUARD_FRACTION * m_k

    y_nodes, x_nodes = _nodes(k, m_k, TABLE_SIZE)
    if np.any(np.diff(x_nodes) <= 0.0):
        raise ValueError("inverse table failed to be strictly increasing")
    hermite, trusted = _quintic_table(k, m_k, x_nodes, y_nodes)
    # The low series answers the brackets before the first trusted one, up
    # to w = _LOW_W_MAX; each other bracket below the guard must be trusted.
    low = int(np.argmax(trusted)) if trusted.any() else len(trusted)
    reach = min(x_nodes[low], _LOW_W_MAX ** (k / (2 * k - 2)) / k)
    bad = np.flatnonzero(~trusted & (x_nodes[:-1] < m_k - guard) & (x_nodes[1:] > reach))
    if bad.size:
        raise ValueError(
            f"profile k={k}: node bracket {bad[0]}, {x_nodes[bad[0]:bad[0] + 2].tolist()}, is "
            f"answered by neither the quintic nor the low series (TABLE_SIZE {TABLE_SIZE}, "
            f"GUARD_FRACTION {GUARD_FRACTION})")
    hermite[:, :low] = np.nan  # never read; y'' may overflow there
    even = _even_series(k, guard, extra=1)
    s = ScalingFunction(
        k=k, m_k=m_k, y_table=y_nodes, x_table=x_nodes, hermite=hermite,
        low_end=float(x_nodes[low]),
        low_series=_low_series(k, (k * x_nodes[low]) ** ((2 * k - 2) / k)),
        x_guide=_guide_table(x_nodes), y_guide=_guide_table(y_nodes),
        taylor=even[:-1], prime_ratio=2.0 * np.arange(1, len(even)) * even[1:],
        series_radius_guard=guard,
    )

    # Dual-route check of the inversion integral itself.
    for y in (0.25, 0.5, 0.75, 0.95, 1.0):
        direct = _inverse_quadrature(k, y)
        if abs(direct - s.f_inverse(y)) > 1e-10 * max(1.0, m_k):
            raise ValueError(
                f"inversion routes disagree for k={k} at y={y}: "
                f"quadrature {direct!r} vs beta {s.f_inverse(y)!r}"
            )
    return s

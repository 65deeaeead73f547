"""Checks for the codimension-k scaling profile.

The k = 2 profile is the quarter circle g(x) = sqrt(2x - x^2), which
gives exact closed forms for values, derivatives, and Taylor
coefficients; higher k is pinned by frozen mpmath references and by the
defining relation g^(2k-2) (1 + g'^2) = 1 itself.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from archarray import scaling
from archarray.quadrature import QuadratureSpec
from archarray.scaling import (
    ScalingFunction,
    make_scaling,
    mk_closed_form,
    mk_quadrature,
)
from testutil import nth_derivative

# mpmath (dps=40) frozen references -----------------------------------------

M_K = {
    2: 1.0,
    3: 0.5990701173677961,
    4: 0.43118492653829843,
    5: 0.3374884744129745,
    6: 0.2774501918484056,
    7: 0.2356261945766192,
    8: 0.20479540956753395,
    9: 0.18111715036511264,
    10: 0.16235655243834418,
    11: 0.14712342744603882,
    12: 0.13450713210063928,
}

# (k, x, g(x)) triples solved by bisection on the inverse profile.
PROFILE = [
    (2, 0.3, 0.714142842854285),
    (3, 0.25, 0.8627649932377712),
    (5, 0.2, 0.9598111275418421),
]

# (k, y, g^{-1}(y)) triples from the incomplete-beta closed form.
F_INVERSE = [
    (2, 0.6, 0.19999999999999998),
    (3, 0.5, 0.04224201290611786),
    (4, 0.85, 0.14262753764957392),
    (6, 0.999, 0.2574685237981393),
]

# (-1)^j binom(1/2, j): the u^j coefficients of sqrt(1 - u) (k = 2 case).
K2_TAYLOR = [
    1.0,
    -0.5,
    -0.125,
    -0.0625,
    -0.0390625,
    -0.02734375,
    -0.0205078125,
    -0.01611328125,
    -0.013092041015625,
]


# half-width M_k -------------------------------------------------------------


@pytest.mark.parametrize("k", sorted(M_K))
def test_mk_closed_form_frozen(k):
    assert mk_closed_form(k) == pytest.approx(M_K[k], rel=1e-13)


@pytest.mark.parametrize("k", sorted(M_K))
def test_mk_routes_agree(k):
    # Quadrature of the defining integral vs the Gamma closed form:
    # genuinely independent code paths.
    assert mk_quadrature(k) == pytest.approx(mk_closed_form(k), rel=1e-10)


def test_m2_is_exactly_one_up_to_roundoff():
    assert abs(mk_closed_form(2) - 1.0) <= 1e-12


def test_mk_decreasing_in_k():
    vals = [mk_closed_form(k) for k in range(2, 13)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_mk_rejects_bad_k():
    for bad in (1, 0, -3, 2.0, True):
        with pytest.raises(ValueError):
            mk_closed_form(bad)


# profile values -------------------------------------------------------------


def quarter_circle(x):
    return np.sqrt(np.clip(2.0 * x - x * x, 0.0, None))


def test_k2_matches_quarter_circle():
    s = make_scaling(2)
    xs = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(s.f(xs) - quarter_circle(xs))) < 1e-12


@pytest.mark.parametrize("k,x,expected", PROFILE)
def test_profile_frozen_values(k, x, expected):
    s = make_scaling(k)
    assert s.f(x) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k,y,expected", F_INVERSE)
def test_inverse_frozen_values(k, y, expected):
    s = make_scaling(k)
    assert s.f_inverse(y) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_endpoints(k):
    s = make_scaling(k)
    assert s.f(0.0) == 0.0
    assert s.f(np.array([0.0, 0.5 * s.m_k]))[0] == 0.0
    assert s.f(s.m_k) == pytest.approx(1.0, abs=1e-13)
    assert s.f_inverse(0.0) == 0.0
    assert s.f_inverse(1.0) == pytest.approx(s.m_k, abs=1e-15)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_roundtrip_grid(k):
    s = make_scaling(k)
    xs = np.linspace(0.0, s.m_k, 1000)
    err = np.abs(s.f_inverse(s.f(xs)) - xs)
    assert np.max(err) < 1e-10
    ys = np.linspace(0.0, 1.0, 1000)
    err = np.abs(s.f(s.f_inverse(ys)) - ys)
    assert np.max(err) < 1e-10


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_monotone_increasing(k):
    s = make_scaling(k)
    xs = np.linspace(0.0, s.m_k, 2000)
    assert np.all(np.diff(s.f(xs)) > 0.0)


@given(st.integers(min_value=2, max_value=9), st.floats(min_value=0.0, max_value=1.0))
def test_roundtrip_hypothesis(k, t):
    s = make_scaling(k)
    x = t * s.m_k
    assert s.f_inverse(s.f(x)) == pytest.approx(x, abs=1e-10)


# defining relation ----------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_defining_relation_residual(k):
    s = make_scaling(k)
    # Avoid x = 0 where g' diverges; the relation still holds in the
    # limit but the evaluation does not.
    xs = np.linspace(1e-6 * s.m_k, s.m_k, 1000)
    res = s.defining_residual(xs)
    assert np.max(np.abs(res)) < 1e-8


def test_residual_definition_consistent():
    s = make_scaling(3)
    xs = np.linspace(0.01, s.m_k, 50)
    y = s.f(xs)
    yp = s.f_prime(xs)
    manual = y**4 * (1.0 + yp**2) - 1.0
    assert np.max(np.abs(s.defining_residual(xs) - manual)) < 1e-12


# derivative -----------------------------------------------------------------


def test_k2_derivative_closed_form():
    s = make_scaling(2)
    xs = np.linspace(0.05, 0.999, 400)
    expected = (1.0 - xs) / quarter_circle(xs)
    assert np.max(np.abs(s.f_prime(xs) - expected)) < 5e-11


def test_derivative_at_mk_is_zero():
    for k in (2, 3, 5):
        s = make_scaling(k)
        assert s.f_prime(s.m_k) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_derivative_matches_finite_differences(k):
    s = make_scaling(k)
    for t in (0.15, 0.4, 0.63, 0.74, 0.9):
        x = t * s.m_k
        fd = nth_derivative(lambda z: s.f(z), x, 1, h=2e-3 * s.m_k)
        assert s.f_prime(x) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_derivative_continuous_across_guard():
    # The series and root-finding evaluation paths must agree where they
    # meet; straddle the switch point so closely that the function's own
    # slope contributes < 1e-12.
    for k in (2, 3, 5):
        s = make_scaling(k)
        edge = s.m_k - s.series_radius_guard
        left = s.f_prime(edge - 1e-12)
        right = s.f_prime(edge + 1e-12)
        assert left == pytest.approx(right, rel=1e-8, abs=1e-10)
        vleft = s.f(edge - 1e-12)
        vright = s.f(edge + 1e-12)
        assert vleft == pytest.approx(vright, rel=1e-10)


def test_series_prime_ratio_at_zero():
    # g'(m_k + t)/t -> 2 c_1 = -(k-1) as t -> 0.
    for k in (2, 3, 4, 7):
        s = make_scaling(k)
        assert s.series_prime_ratio(0.0) == pytest.approx(-(k - 1.0), rel=1e-12)


def test_f_prime_domain():
    s = make_scaling(2)
    with pytest.raises(ValueError):
        s.f_prime(0.0)
    with pytest.raises(ValueError):
        s.f_prime(1.5)


# Taylor expansion at m_k ----------------------------------------------------


def test_k2_taylor_coefficients_binomial():
    s = make_scaling(2)
    got = s.taylor_at_mk(12)
    for j, c in enumerate(got):
        assert c == pytest.approx(K2_TAYLOR[j] if j < len(K2_TAYLOR) else c, rel=1e-12)
    # Check explicitly against the frozen list as far as it goes.
    n = min(len(got), len(K2_TAYLOR))
    assert np.allclose(got[:n], K2_TAYLOR[:n], rtol=1e-12)


def test_taylor_leading_terms():
    for k in (2, 3, 4, 5, 6):
        s = make_scaling(k)
        c = s.taylor_at_mk(2)
        assert c[0] == 1.0
        assert c[1] == pytest.approx(-(k - 1) / 2.0, rel=1e-14)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_taylor_matches_numerical_derivatives(k):
    # Independent oracle: force root-path evaluation with a zero-width
    # guard, substitute u = (m_k - x)^2 so the profile becomes analytic
    # in u, and Richardson-differentiate.  c_j = F^(j)(0)/j!.
    probe = make_scaling(k, guard_fraction=1e-9, taylor_terms=4)
    s = make_scaling(k)
    coefs = s.taylor_at_mk(6)

    def even_profile(u):
        return probe.f(probe.m_k - math.sqrt(max(u, 0.0)))

    for j in (1, 2, 3):
        deriv = nth_derivative(
            even_profile, 0.0, j, h=0.04 * probe.m_k**2, side=+1, levels=3
        )
        assert deriv == pytest.approx(coefs[j] * math.factorial(j), rel=1e-5)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_odd_derivatives_vanish_at_mk(k):
    # First derivative straight from one-sided differences on the
    # root-path probe; higher odd components through the reconstruction
    # residual |f(m_k - t) - even series|/t^3, which any t^3 (or t^5,
    # ...) admixture would inflate.
    probe = make_scaling(k, guard_fraction=1e-9, taylor_terms=4)
    s = make_scaling(k)
    d1 = nth_derivative(
        lambda x: probe.f(x), probe.m_k, 1, h=0.03 * probe.m_k, side=-1
    )
    assert abs(d1) < 1e-7

    ts = np.linspace(0.02, 0.12, 41) * s.m_k
    u = ts**2
    series = np.zeros_like(u)
    for cj in s.taylor[::-1]:
        series = series * u + cj
    resid = np.abs(probe.f(s.m_k - ts) - series) / ts**3
    assert np.max(resid) < 1e-7


def test_taylor_at_mk_validation():
    s = make_scaling(2)
    with pytest.raises(ValueError):
        s.taylor_at_mk(3)
    with pytest.raises(ValueError):
        s.taylor_at_mk(-2)
    with pytest.raises(ValueError):
        s.taylor_at_mk(200)


# construction ---------------------------------------------------------------


def test_make_scaling_caches():
    assert make_scaling(3) is make_scaling(3)


def test_make_scaling_custom_table():
    s = make_scaling(3, table_size=256)
    xs = np.linspace(0.0, s.m_k, 200)
    ref = make_scaling(3)
    assert np.max(np.abs(s.f(xs) - ref.f(xs))) < 1e-11


def test_make_scaling_validation():
    with pytest.raises(ValueError):
        make_scaling(1)
    with pytest.raises(ValueError):
        make_scaling(2, table_size=4)
    with pytest.raises(ValueError):
        make_scaling(2, taylor_terms=0)
    with pytest.raises(TypeError):
        make_scaling(2, spec="tight")


def test_make_scaling_accepts_custom_spec():
    s = make_scaling(4, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12))
    assert s.m_k == pytest.approx(M_K[4], rel=1e-9)


def test_domain_validation():
    s = make_scaling(3)
    with pytest.raises(ValueError):
        s.f(-0.01)
    with pytest.raises(ValueError):
        s.f(s.m_k + 0.01)
    with pytest.raises(ValueError):
        s.f_inverse(1.2)
    with pytest.raises(ValueError):
        s.f_inverse(-0.2)


def test_inverse_table_property():
    s = make_scaling(2)
    table = s.inverse_table
    assert table.shape[1] == 2
    assert table[0, 0] == 0.0 and table[-1, 0] == 1.0
    assert np.all(np.diff(table[:, 1]) > 0.0)


# per-point inversion ----------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 6])
def test_f_does_not_depend_on_its_batch(k):
    s = make_scaling(k)
    xs = np.random.default_rng(11).uniform(0.0, s.m_k, 400)
    whole = s.f(xs)
    alone = np.array([s.f(x) for x in xs])
    assert np.count_nonzero(whole != alone) == 0


@pytest.mark.parametrize("k", [2, 3])
def test_inversion_converges_in_few_steps(k, monkeypatch):
    s = make_scaling(k)
    calls = []
    raw = ScalingFunction._raw_inverse
    monkeypatch.setattr(ScalingFunction, "_raw_inverse",
                        lambda self, y: calls.append(y.size) or raw(self, y))
    # The points f sends to the root solve: outside the series guard.
    xs = np.random.default_rng(5).uniform(0.0, s.m_k - s.series_radius_guard, 65536)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s._f_root(xs)
    assert len(calls) <= 8
    assert calls[0] == 65536


def test_newton_cap_warns_with_the_unconverged_count(monkeypatch):
    s = make_scaling(3)
    xs = np.linspace(0.1, 0.4, 50) * s.m_k
    monkeypatch.setattr(scaling, "_NEWTON_CAP", 1)
    with pytest.warns(RuntimeWarning, match=r"left 50 of 50 points unconverged after 1 "):
        s._f_root(xs)


@pytest.mark.parametrize("k", [2, 4])
def test_pair_evaluator_matches_f_and_f_prime_bitwise(k):
    s = make_scaling(k)
    xs = np.linspace(0.0, s.m_k, 801)[1:]
    y, yp = s._f_pair(xs)
    assert np.array_equal(y, s.f(xs)) and np.array_equal(yp, s.f_prime(xs))
    x = 0.3 * s.m_k
    assert s._f_pair(x) == (s.f(x), s.f_prime(x))
    with pytest.raises(ValueError):
        s._f_pair(0.0)


@pytest.mark.parametrize("k", [2, 3])
def test_inverse_at_most_matches_f_inverse(k):
    s = make_scaling(k)
    # Table nodes and their neighbours up to 4 ulp away: there f_inverse's
    # rounding noise (~20 ulp of x) makes it locally non-monotone, so a
    # neighbour can invert past the node's own value.
    near = [s.y_table]
    up = down = s.y_table
    for _ in range(4):
        up, down = np.nextafter(up, 2.0), np.nextafter(down, -1.0)
        near += [up, down]
    near = np.clip(np.concatenate(near), 0.0, 1.0)
    node_x = np.tile(s.x_table, 9)
    y = np.concatenate([near, np.random.default_rng(k).random(20000)])
    fy = s.f_inverse(y)
    # Each y against its own inverse and 1 ulp either side, and each
    # neighbour against its node's value.
    ys = np.concatenate([y, y, y, near])
    xs = np.concatenate([fy, np.nextafter(fy, -1.0), np.nextafter(fy, 2.0), node_x])
    got = s.inverse_at_most(ys, xs)
    want = s.f_inverse(ys) <= xs
    assert np.array_equal(got, want)

"""Checks for the hand-rolled special functions.

Reference values were generated offline with mpmath at 40 decimal
digits and frozen here, so the suite has no scipy/mpmath runtime
dependency.  Where scipy happens to be installed we also cross-check
against it as a second, independent oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from archarray import special
from archarray.special import (
    ball_volume,
    betainc_reg,
    gamma,
    gamma_ln,
    gamma_q,
    incomplete_beta,
    sphere_area,
)

try:
    import scipy.special as sps
except ImportError:  # pragma: no cover
    sps = None

# mpmath (dps=40) frozen references -----------------------------------------

GAMMA = [
    (0.05, 19.470085311255513),
    (0.31, 2.8903360540117147),
    (0.5, 1.772453850905516),
    (1.5, 0.886226925452758),
    (3.7, 4.170651783796604),
    (7.25, 1155.3810139199898),
    (12.0, 39916800.0),
    (33.5, 1.505856975626702e+36),
    (171.0, 7.257415615307999e+306),
]

GAMMA_LN = [
    (0.1, 2.252712651734206),
    (10.5, 13.940625219403763),
    (100.0, 359.1342053695754),
    (1000.0, 5905.220423209181),
]

BETAINC_REG = [
    (0.5, 0.5, 0.3, 0.36901011956554536),
    (2.0, 3.0, 0.5, 0.6875),
    (0.75, 0.5, 0.9, 0.7337811860361425),
    (5.0, 0.5, 0.99, 0.7571581091015624),
    (0.6, 0.5, 1e-06, 0.00015089116150626415),
    (1.5, 0.5, 0.999999, 0.9987267606674531),
    (3.0, 7.0, 0.2, 0.26180249600000005),
]

INCOMPLETE_BETA = [
    (0.5, 0.5, 0.5, 1.5707963267948966),
    (1.0, 0.5, 1.0, 2.0),
    (0.25, 0.75, 0.5, 0.500229830609539),
    (0.3, 2.0, 2.0, 0.036),
]

GAMMA_Q = [
    (0.5, 0.5, 0.3173105078629141),
    (1.0, 2.0, 0.1353352832366127),
    (2.5, 0.3, 0.9880032427940937),
    (10.0, 10.0, 0.4579297144718522),
    (10.0, 30.0, 7.121750862815577e-06),
    (0.1, 0.01, 0.3373787400455202),
    (50.0, 40.0, 0.9296649333406051),
]


# gamma ----------------------------------------------------------------------


@pytest.mark.parametrize("x,expected", GAMMA)
def test_gamma_frozen(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=5e-14)


def test_gamma_integers():
    for n in range(1, 15):
        assert gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-14)


def test_gamma_half_integers():
    # Gamma(1/2) = sqrt(pi), Gamma(x+1) = x Gamma(x).
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(2.5) == pytest.approx(1.5 * 0.5 * math.sqrt(math.pi), rel=1e-14)


@given(st.floats(min_value=0.05, max_value=80.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_rejects_nonpositive():
    for bad in (0.0, -0.5, -3.0):
        with pytest.raises(ValueError):
            gamma(bad)
        with pytest.raises(ValueError):
            gamma_ln(bad)


@pytest.mark.parametrize("x,expected", GAMMA_LN)
def test_gamma_ln_frozen(x, expected):
    assert gamma_ln(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@given(st.floats(min_value=0.05, max_value=60.0))
def test_gamma_ln_matches_log_gamma(x):
    assert gamma_ln(x) == pytest.approx(math.log(gamma(x)), rel=1e-12, abs=1e-12)


@pytest.mark.skipif(sps is None, reason="scipy not installed")
def test_gamma_against_scipy():
    xs = np.linspace(0.02, 60.0, 211)
    ours = np.array([gamma(float(x)) for x in xs])
    assert np.allclose(ours, sps.gamma(xs), rtol=5e-14)


# incomplete beta ------------------------------------------------------------


@pytest.mark.parametrize("p,q,z,expected", BETAINC_REG)
def test_betainc_reg_frozen(p, q, z, expected):
    assert betainc_reg(p, q, z) == pytest.approx(expected, rel=5e-13)


def test_betainc_reg_endpoints_exact():
    assert betainc_reg(0.7, 0.5, 0.0) == 0.0
    assert betainc_reg(0.7, 0.5, 1.0) == 1.0


def test_betainc_reg_vectorized():
    z = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
    out = betainc_reg(0.5, 0.5, z)
    assert out.shape == z.shape
    for zi, oi in zip(z, out):
        assert oi == pytest.approx(betainc_reg(0.5, 0.5, float(zi)), abs=1e-15)


@given(
    st.floats(min_value=0.1, max_value=8.0),
    st.floats(min_value=0.1, max_value=8.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_betainc_reg_symmetry(p, q, z):
    # I_z(p, q) = 1 - I_{1-z}(q, p)
    left = betainc_reg(p, q, z)
    right = 1.0 - betainc_reg(q, p, 1.0 - z)
    assert left == pytest.approx(right, abs=5e-13)


@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_betainc_reg_monotone(p, q):
    z = np.linspace(0.0, 1.0, 41)
    vals = betainc_reg(p, q, z)
    assert np.all(np.diff(vals) >= -1e-14)


def test_betacf_cap_warns_with_the_unconverged_count(monkeypatch):
    monkeypatch.setattr(special, "_BETACF_CAP", 1)
    with pytest.warns(RuntimeWarning, match=r"left 20 of 20 points unconverged after 1 "):
        betainc_reg(2.5, 3.5, np.linspace(0.05, 0.3, 20))


def test_betainc_reg_rejects_bad_arguments():
    with pytest.raises(ValueError):
        betainc_reg(-1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        betainc_reg(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        betainc_reg(0.5, 0.5, 1.5)
    with pytest.raises(ValueError):
        betainc_reg(0.5, 0.5, -0.1)


@pytest.mark.parametrize("z,p,q,expected", INCOMPLETE_BETA)
def test_incomplete_beta_frozen(z, p, q, expected):
    assert incomplete_beta(z, p, q) == pytest.approx(expected, rel=5e-13)


def test_incomplete_beta_complete_value():
    # B(1; p, q) = Gamma(p) Gamma(q) / Gamma(p+q)
    for p, q in ((0.5, 0.5), (2.0, 3.0), (1.25, 0.75)):
        expected = gamma(p) * gamma(q) / gamma(p + q)
        assert incomplete_beta(1.0, p, q) == pytest.approx(expected, rel=1e-13)


def test_incomplete_beta_vs_quadrature():
    # Independent route: integrate the defining density directly.
    from archarray.quadrature import integrate

    for z, p, q in ((0.4, 0.5, 0.5), (0.7, 1.5, 0.5), (0.9, 0.75, 2.0)):
        direct = integrate(
            lambda t: t ** (p - 1.0) * (1.0 - t) ** (q - 1.0),
            0.0,
            z,
            singular_left=p < 1.0,
        )
        assert incomplete_beta(z, p, q) == pytest.approx(direct, rel=1e-11)


@pytest.mark.skipif(sps is None, reason="scipy not installed")
def test_betainc_reg_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = float(rng.uniform(0.1, 10.0))
        q = float(rng.uniform(0.1, 10.0))
        z = float(rng.uniform(0.0, 1.0))
        assert betainc_reg(p, q, z) == pytest.approx(
            float(sps.betainc(p, q, z)), abs=5e-14, rel=5e-13
        )


# upper incomplete gamma -----------------------------------------------------


@pytest.mark.parametrize("a,x,expected", GAMMA_Q)
def test_gamma_q_frozen(a, x, expected):
    assert gamma_q(a, x) == pytest.approx(expected, rel=5e-13)


def test_gamma_q_limits():
    assert gamma_q(1.5, 0.0) == 1.0
    assert gamma_q(1.0, 50.0) == pytest.approx(math.exp(-50.0), rel=1e-12)


def test_gamma_q_exponential_case():
    # Q(1, x) = exp(-x)
    for x in (0.1, 1.0, 3.0, 10.0):
        assert gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)


def test_gamma_q_recurrence():
    # Q(a+1, x) = Q(a, x) + x^a e^-x / Gamma(a+1)
    for a, x in ((0.5, 0.8), (2.0, 3.5), (5.0, 4.0)):
        step = x**a * math.exp(-x) / gamma(a + 1.0)
        assert gamma_q(a + 1.0, x) == pytest.approx(gamma_q(a, x) + step, rel=1e-12)


def test_gamma_q_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_q(1.0, -1.0)


@pytest.mark.skipif(sps is None, reason="scipy not installed")
def test_gamma_q_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = float(rng.uniform(0.05, 40.0))
        x = float(rng.uniform(0.0, 60.0))
        assert gamma_q(a, x) == pytest.approx(
            float(sps.gammaincc(a, x)), abs=1e-13, rel=5e-12
        )


# sphere / ball measures -----------------------------------------------------


def test_sphere_area_low_dims():
    assert sphere_area(0) == pytest.approx(2.0, rel=1e-15)
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


def test_ball_volume_low_dims():
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)


def test_sphere_area_radius_scaling():
    for d in range(0, 6):
        assert sphere_area(d, 2.5) == pytest.approx(
            sphere_area(d) * 2.5**d, rel=1e-13
        )


def test_ball_volume_radius_scaling():
    for d in range(1, 7):
        assert ball_volume(d, 0.5) == pytest.approx(
            ball_volume(d) * 0.5**d, rel=1e-13
        )


def test_ball_is_antiderivative_of_sphere():
    # d/dr Vol(B^d(r)) = Area(S^(d-1)(r))
    for d in range(2, 8):
        r = 1.3
        deriv = d * ball_volume(d) * r ** (d - 1)
        assert deriv == pytest.approx(sphere_area(d - 1, r), rel=1e-13)


def test_measure_dimension_validation():
    with pytest.raises(ValueError):
        sphere_area(-1)
    with pytest.raises(ValueError):
        ball_volume(0)

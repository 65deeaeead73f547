"""Adaptive Gauss-Kronrod integrator checks against known integrals."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from archarray import quadrature
from archarray.quadrature import QuadratureError, integrate


def test_polynomial_exact():
    # A 7-point Gauss rule is exact through degree 13; Kronrod beyond.
    value = integrate(lambda x: 5.0 * x**4 - 3.0 * x**2 + 2.0, -1.0, 2.0)
    exact = (2.0**5 + 1.0) - (2.0**3 + 1.0) + 2.0 * 3.0
    assert value == pytest.approx(exact, rel=1e-14)


def test_smooth_transcendental():
    assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-13)
    assert integrate(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)


def test_oscillatory():
    # int_0^10 sin(20 x) dx = (1 - cos 200)/20
    value = integrate(lambda x: np.sin(20.0 * x), 0.0, 10.0)
    assert value == pytest.approx((1.0 - math.cos(200.0)) / 20.0, abs=1e-11)


def test_scalar_only_integrand():
    value = integrate(lambda x: math.cos(x), 0.0, 1.0)
    assert value == pytest.approx(math.sin(1.0), rel=1e-13)


def test_reversed_limits_negate():
    fwd = integrate(np.exp, 0.0, 1.0)
    assert integrate(np.exp, 1.0, 0.0) == pytest.approx(-fwd, rel=1e-14)


def test_empty_interval():
    assert integrate(np.exp, 2.0, 2.0) == 0.0


def test_singular_left():
    # int_0^1 1/sqrt(x) dx = 2
    value = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular_left=True)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_singular_right():
    # int_0^1 1/sqrt(1-x) dx = 2
    value = integrate(
        lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0, singular_right=True
    )
    assert value == pytest.approx(2.0, rel=1e-12)


def test_both_endpoints_singular():
    # int_0^1 dx / sqrt(x (1-x)) = pi
    value = integrate(
        lambda x: 1.0 / np.sqrt(x * (1.0 - x)),
        0.0,
        1.0,
        singular_left=True,
        singular_right=True,
    )
    assert value == pytest.approx(math.pi, rel=1e-12)


def test_reversed_limits_swap_singularity_flags():
    value = integrate(
        lambda x: 1.0 / np.sqrt(x), 1.0, 0.0, singular_right=True
    )
    assert value == pytest.approx(-2.0, rel=1e-12)


def test_profile_arc_element():
    # int_0^y t/sqrt(1-t^2) dt = 1 - sqrt(1-y^2), singular at t = 1.
    value = integrate(
        lambda t: t / np.sqrt(1.0 - t * t), 0.0, 1.0, singular_right=True
    )
    assert value == pytest.approx(1.0, rel=1e-12)


def test_unflagged_singularity_fails_to_converge():
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0)


def test_result_over_tolerance_is_accepted_with_a_warning(monkeypatch):
    # The kink of sqrt at 0 needs more than 18 intervals for the default
    # tolerance; at 18 the error estimate is about 2.8x the tolerance.
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 18)
    with pytest.warns(RuntimeWarning, match="above the tolerance"):
        value = integrate(np.sqrt, 0.0, 1.0)
    assert value == pytest.approx(2.0 / 3.0, rel=1e-12)
    # Beyond ten times the tolerance it still raises, without a warning.
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 8)
    with pytest.raises(QuadratureError):
        integrate(np.sqrt, 0.0, 1.0)
    # With room to converge it is silent (tier-1 turns warnings into errors).
    monkeypatch.undo()
    assert integrate(np.sqrt, 0.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_nonfinite_integrand_value_raises():
    # The midpoint of the first panel is an evaluation node, so a pole
    # there produces an inf that must be reported, not summed over.
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            integrate(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)


def test_nonfinite_limits_rejected():
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate(np.exp, math.nan, 1.0)


def test_failure_carries_partial_result(monkeypatch):
    # A needle far too sharp for the depth budget: the error should be
    # reported via QuadratureError together with the best value.
    for name, value in (("REL_TOL", 1e-15), ("ABS_TOL", 1e-300), ("MAX_DEPTH", 2)):
        monkeypatch.setattr(quadrature, name, value)
    needle = lambda x: 1.0 / (1e-8 + (x - 0.37) ** 2)
    with pytest.raises(QuadratureError) as err:
        integrate(needle, 0.0, 1.0)
    assert math.isfinite(err.value.value)
    assert err.value.error_estimate > 0.0


def test_spec_defaults_are_tight():
    assert quadrature.REL_TOL <= 1e-10
    assert quadrature.MAX_DEPTH >= 30


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=4.0),
)
def test_gaussian_bump_additivity(a, width):
    b = a + width
    f = lambda x: np.exp(-(x**2))
    mid = 0.5 * (a + b)
    whole = integrate(f, a, b)
    parts = integrate(f, a, mid) + integrate(f, mid, b)
    assert whole == pytest.approx(parts, abs=1e-12)


@given(st.floats(min_value=0.55, max_value=6.0))
def test_power_singularity_family(p):
    # int_0^1 x^(p-1) dx = 1/p; p < 1 has an integrable endpoint blowup
    # (the substitution handles any power milder than the square root).
    value = integrate(
        lambda x: x ** (p - 1.0), 0.0, 1.0, singular_left=p < 1.0
    )
    assert value == pytest.approx(1.0 / p, rel=1e-10)

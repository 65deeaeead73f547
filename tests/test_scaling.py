"""Checks for the codimension-k scaling profile.

The k = 2 profile is the quarter circle g(x) = sqrt(2x - x^2), which
gives exact closed forms for values, derivatives, and Taylor
coefficients; higher k is pinned by frozen mpmath references and by the
defining relation g^(2k-2) (1 + g'^2) = 1 itself.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from archarray import scaling
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


# (x, g(x), g'(x)) on the series cap [0.75, 1) m_k, from mpmath (dps=50):
# 40 bisections and 8 Newton steps on M_k I(y^(2k-2); p, 1/2) = x, then
# g' = sqrt(1 - y^(2k-2))/y^(k-1), printed to 30 digits.
CAP_PROFILE = {
    2: [
        (0.7500000000000002,
         "0.968245836551854278626486815936", "0.258198889747160881063490371761"),
        (0.7800000000000002,
         "0.97549987186057595577221267075", "0.225525401228800381457616666136"),
        (0.8100000000000003,
         "0.981784090317214350319525394135", "0.193525238261510982459629518555"),
        (0.8500000000000002,
         "0.988685996664259455896451629831", "0.151716521227251878986802985386"),
        (0.8800000000000002,
         "0.992773891679268555066741534476", "0.120873444603806813300386538598"),
        (0.9100000000000003,
         "0.995941765365827022240463788771", "0.090366729390991204537380027789"),
        (0.9400000000000002,
         "0.998198377077422431655823928593", "0.0601082924775644081014246640357"),
        (0.9600000000000002,
         "0.999199679743743720402177355646", "0.0400320384512715964048063988297"),
        (0.9800000000000002,
         "0.999799979995999003806354073577", "0.020004001200399935646752020996"),
        (0.9900000000000002,
         "0.999949998749937498225211338675", "0.0100005000375029120786629632226"),
        (0.9990000000000002,
         "0.999999499999875000158656498021", "0.00100000050000015384355425988783"),
        (0.9999000000000002,
         "0.999999994999999987523305739349", "0.000100000000499766945729174848085"),
    ],
    3: [
        (0.44930258802584727,
         "0.977135372401858113959569583383", "0.311344534392004356231472467321"),
        (0.46727469154688117,
         "0.982371613535851642524331141949", "0.271540398161611585354181447362"),
        (0.48524679506791507,
         "0.98690152778381896181226725106", "0.232713529887626149268627193507"),
        (0.5092095997626269,
         "0.991870067507383984991957714355", "0.182185592181275815016640736582"),
        (0.5271817032836608,
         "0.994809621475955497817292132282", "0.14503012301510493459519455407"),
        (0.5451538068046947,
         "0.997085957840917583323676187367", "0.108358582904241000820410993185"),
        (0.5631259103257286,
         "0.998706620194583449186487072785", "0.072043673595587883441140144848"),
        (0.5751073126730845,
         "0.999425508978959096701245566788", "0.0479715361377106004036443914277"),
        (0.5870887150204405,
         "0.999856428820883399468583055398", "0.0239685398492221708991044011935"),
        (0.5930794161941184,
         "0.999964110426068235788060000036", "0.0119821190641240306545624273999"),
        (0.5984710472504285,
         "0.999999641114887145121038910531", "0.00119814095139331691694842380191"),
        (0.5990102103560596,
         "0.999999996411149934070833829138", "0.000119814024189637807044851568057"),
    ],
    6: [
        (0.20808764388630419,
         "0.987696402957191932804913712603", "0.363026865138735657403920228519"),
        (0.21641114964175637,
         "0.990521724335776336130412771644", "0.316096645987010982287794232535"),
        (0.22473465539720852,
         "0.992962217472979873424971685532", "0.270518897837455883142342151494"),
        (0.23583266307114473,
         "0.995635105602977947902237594336", "0.211460111769531996395486406584"),
        (0.2441561688265969,
         "0.997214567085628275692630963584", "0.168183982549973262245290199207"),
        (0.25247967458204906,
         "0.99843670644962140944190659995", "0.125571469990289152169943860233"),
        (0.2608031803375012,
         "0.999306310636905274845538939717", "0.0834471899203494648305555031125"),
        (0.2663521841744694,
         "0.999691911575564842856097544702", "0.0555527785135122099619619025362"),
        (0.2719011880114375,
         "0.999923010524627430682324323676", "0.0277528531868238451377493633901"),
        (0.27467568992992153,
         "0.999980754668732702150350458641", "0.013873488576919813657047977935"),
        (0.2771727416565572,
         "0.999999807553409709490093847561", "0.00138725193813871580519421739309"),
        (0.27742244682922074,
         "0.999999998075534769292702955622", "0.00013872509690308068169338432184"),
    ],
    8: [
        (0.1535965571756504,
         "0.990606445682929310030243733762", "0.375843303267936074484500514462"),
        (0.15974041946267645,
         "0.992765069251291949030934450126", "0.327114574019443902567118685829"),
        (0.16588428174970246,
         "0.99462892471098091261613387833", "0.279844477122038885688256974265"),
        (0.1740760981324038,
         "0.996669476811530846042971744667", "0.218661861667667361898146842508"),
        (0.18021996041942984,
         "0.997874894595253244344668388791", "0.173870890711087139858151011786"),
        (0.18636382270645585,
         "0.998807415873924924936146622687", "0.12979394987642038888650978141"),
        (0.19250768499348184,
         "0.999470841661883488524897571671", "0.0862421056825754597499881383621"),
        (0.19660359318483253,
         "0.999764991458660134893118278471", "0.0574101550333135620058900945302"),
        (0.2006995013761832,
         "0.999941273754783485010873290309", "0.0286797780243388503747371441878"),
        (0.20274745547185855,
         "0.999985320055331410483667653291", "0.0143367309632764787366798595954"),
        (0.20459061415796637,
         "0.999999853205886898869805640835", "0.00143356891917037474240488991977"),
        (0.20477493002657715,
         "0.999999998532059402306953995034", "0.000143356787749872010265971749918"),
    ],
}

# c_1..c_6 of g(m_k + t) = sum c_j t^(2j) from mpmath (dps=40) without the
# profile ODE: with y^(k-1) = cos(phi) the defining integral gives
# m_k - x = int_0^phi cos(s)^(1/(k-1)) ds/(k-1), so t and y are power series
# in phi (mpmath's taylor of cos^(1/(k-1))); reverting t(phi) and composing
# gives y(t).
TAYLOR_REF = {
    3: ["-1.0", "-0.833333333333333333333333333333", "-1.27777777777777777777777777778",
        "-2.37103174603174603174603174603", "-4.84678130511463844797178130511",
        "-10.5109995457217679439901662124"],
    6: ["-2.5", "-11.4583333333333333333333333333", "-89.7569444444444444444444444444",
        "-824.761284722222222222222222222", "-8216.91141010802469135802469136",
        "-86037.2836893968621399176954733"],
}


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
    # Outside the series guard g' is derived from g through the relation,
    # so the residual there only checks that derivation; inside it g and
    # g' both come from the series, and the residual checks the series.
    xs = np.linspace(1e-6 * s.m_k, s.m_k, 1000)
    assert np.sum(s.m_k - xs <= s.series_radius_guard) > 200
    y, yp = s.f(xs), s.f_prime(xs)
    e = 2 * k - 2
    res = y ** e + y ** (e - 2) * (y * yp) ** 2 - 1.0
    assert np.max(np.abs(res)) < 1e-8


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
def test_taylor_matches_numerical_derivatives(k, build_scaling):
    # Independent oracle: force root-path evaluation with a zero-width
    # guard, substitute u = (m_k - x)^2 so the profile becomes analytic
    # in u, and Richardson-differentiate.  c_j = F^(j)(0)/j!.
    probe = build_scaling(k, GUARD_FRACTION=1e-9)
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
def test_odd_derivatives_vanish_at_mk(k, build_scaling):
    # First derivative straight from one-sided differences on the
    # root-path probe; higher odd components through the reconstruction
    # residual |f(m_k - t) - even series|/t^3, which any t^3 (or t^5,
    # ...) admixture would inflate.
    probe = build_scaling(k, GUARD_FRACTION=1e-9)
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


def _cap_columns(k):
    return (np.array([float(v) for v in col]) for col in zip(*CAP_PROFILE[k]))


@pytest.mark.parametrize("k", sorted(CAP_PROFILE))
def test_cap_values_within_4_ulp_of_mpmath(k):
    x, y, _ = _cap_columns(k)
    assert np.all(np.abs(make_scaling(k).f(x) - y) <= 4 * np.spacing(y))


@pytest.mark.parametrize("k", sorted(CAP_PROFILE))
def test_cap_slopes_within_1e_11_of_mpmath(k):
    x, _, yp = _cap_columns(k)
    assert np.all(np.abs(make_scaling(k).f_prime(x) / yp - 1.0) <= 1e-11)


@pytest.mark.parametrize("k", sorted(TAYLOR_REF))
def test_taylor_coefficients_are_the_rounded_references(k):
    # Exact rationals rounded once: each is the float nearest its reference.
    assert make_scaling(k).taylor_at_mk(12)[1:] == [float(c) for c in TAYLOR_REF[k]]


def test_series_stops_below_a_quarter_of_rounding_at_the_guard():
    quarter = 2.0 ** -55
    for k in range(2, 65):
        guard = scaling.GUARD_FRACTION * mk_closed_form(k)
        c = scaling._even_series(k, guard)
        terms = np.abs(c) * guard ** (2.0 * np.arange(len(c)))
        assert 13 <= len(c) <= 14
        assert terms[-1] < quarter and np.all(terms[2:-1] >= quarter)
    # However narrow the guard, c_1 stays: the slope near m_k is 2 c_1 t.
    assert list(scaling._even_series(3, 1e-9)) == [1.0, -1.0, -5.0 / 6.0]


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
    assert make_scaling(np.int64(3)) is make_scaling(3)
    assert type(make_scaling(np.int64(3)).k) is int


def test_make_scaling_custom_table(build_scaling):
    s = build_scaling(3, TABLE_SIZE=256)
    xs = np.linspace(0.0, s.m_k, 200)
    ref = make_scaling(3)
    assert len(s.y_table) == 256 and s is not ref
    assert np.max(np.abs(s.f(xs) - ref.f(xs))) < 1e-11


def test_make_scaling_validation():
    make_scaling(2)
    # The cache holds k = 2, but the check comes first.
    for bad in (1, 2.0, True, "2"):
        with pytest.raises(ValueError, match="k must be"):
            make_scaling(bad)


def test_make_scaling_refuses_orders_that_do_not_build():
    # k = 24 is the largest order that builds; above it the node table
    # (k = 25 to 42) or the M_k quadrature (from k = 43) used to fail
    # inside the build, the latter after a RuntimeWarning.
    assert make_scaling(24).k == 24
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (25, 43, 64):
            with pytest.raises(ValueError, match="k must be at most 24, the largest"):
                make_scaling(k)
    # The closed form of M_k has no such limit.
    assert mk_closed_form(64) > 0.0


def test_mk_quadrature_refuses_orders_past_its_limit():
    # k = 42 is the largest order whose M_k integrand stays finite at every
    # node; from k = 43 on the order is refused before any node runs.
    assert mk_quadrature(42) == pytest.approx(mk_closed_form(42), rel=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (43, 64):
            with pytest.raises(ValueError, match="takes k up to 42"):
                mk_quadrature(k)


def test_domain_validation():
    s = make_scaling(3)
    with pytest.raises(ValueError):
        s.f(-0.01)
    with pytest.raises(ValueError):
        s.f(s.m_k + 0.01)
    for fn in (s.f, s.f_prime):
        with pytest.raises(ValueError, match="must lie in"):
            fn(np.array([0.3, np.nan]))
    with pytest.raises(ValueError):
        s.f_inverse(1.2)
    with pytest.raises(ValueError):
        s.f_inverse(-0.2)


def test_inverse_table_property():
    s = make_scaling(2)
    assert s.y_table.shape == s.x_table.shape == (scaling.TABLE_SIZE,)
    assert s.y_table[0] == 0.0 and s.y_table[-1] == 1.0
    assert s.x_table[0] == 0.0 and s.x_table[-1] == s.m_k
    assert np.all(np.diff(s.x_table) > 0.0)


# per-point inversion ----------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 6])
def test_f_does_not_depend_on_its_batch(k):
    s = make_scaling(k)
    xs = np.random.default_rng(11).uniform(0.0, s.m_k, 400)
    whole = s.f(xs)
    alone = np.array([s.f(x) for x in xs])
    assert np.count_nonzero(whole != alone) == 0


def _bracket(s, x):
    return np.clip(np.searchsorted(s.x_table, x, side="right") - 1, 0, len(s.x_table) - 2)


@pytest.mark.parametrize("k", [2, 3, 6])
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
    # Only the points outside the trusted brackets reach Newton, and the
    # quintic start leaves them one or two steps each.
    newton = np.count_nonzero(~s.trusted[_bracket(s, xs)])
    assert 0 < newton < 100
    assert len(calls) <= 3
    assert calls[0] == newton
    assert sum(calls) / newton <= 2.0


@pytest.mark.parametrize("k", [2, 3, 6])
def test_trusted_brackets_make_no_incomplete_beta(k, monkeypatch):
    s = make_scaling(k)
    calls = []
    monkeypatch.setattr(ScalingFunction, "_raw_inverse", lambda self, y: calls.append(y))
    monkeypatch.setattr(scaling, "betainc_reg", lambda *args: calls.append(args))
    xs = np.random.default_rng(6).uniform(0.0, s.m_k, 65536)
    xs = xs[s.trusted[_bracket(s, xs)]]
    y = s.f(xs)
    assert calls == []
    assert xs.size > 65000 and np.all((y > 0.0) & (y <= 1.0))


def test_newton_cap_warns_with_the_unconverged_count(monkeypatch, build_scaling):
    # A coarse table trusts no bracket, so every point reaches Newton.
    s = build_scaling(3, TABLE_SIZE=64)
    xs = np.linspace(0.1, 0.4, 50) * s.m_k
    monkeypatch.setattr(scaling, "_NEWTON_CAP", 0)
    with pytest.warns(RuntimeWarning, match=r"left 50 of 50 points unconverged after 0 "):
        s._f_root(xs)


# Largest deviation, in ulp, of the interpolated profile from the Newton
# root on uniform points below the series guard.  Both carry the ~10 ulp
# rounding noise of g^{-1}, at the nodes and at the point (10 ulp
# measured, for k = 2).
INTERPOLANT_ULP = 16


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8])
def test_interpolant_stays_within_its_ulp_bound_of_newton(k):
    s = make_scaling(k)
    newton = dataclasses.replace(s, trusted=np.zeros_like(s.trusted))
    xs = np.random.default_rng(k).uniform(0.0, s.m_k - s.series_radius_guard, 10**6)
    assert np.mean(s.trusted[_bracket(s, xs)]) > 0.999
    for chunk in np.array_split(xs, 8):
        want = newton._f_root(chunk)
        assert np.all(np.abs(s._f_root(chunk) - want) <= INTERPOLANT_ULP * np.spacing(want))


@pytest.mark.parametrize("size", [8, 64, 256])
@pytest.mark.parametrize("k", [2, 3, 6])
def test_coarse_tables_fall_back_to_newton(k, size, build_scaling):
    # Their remainder bounds exceed rounding in every bracket, so every
    # value is a Newton root, and no Newton cap is hit.
    s = build_scaling(k, TABLE_SIZE=size)
    ref = make_scaling(k)
    xs = np.random.default_rng(size).uniform(0.0, ref.m_k - ref.series_radius_guard, 10**5)
    want = ref.f(xs)
    assert not s.trusted.any()
    assert np.all(np.abs(s.f(xs) - want) <= INTERPOLANT_ULP * np.spacing(want))


@pytest.mark.parametrize("k", [2, 3, 6])
def test_node_curvature_matches_differentiated_f_prime(k):
    # The t^2 row of the table is h^2 y''/2 with y'' = -(k-1)/y^(2k-1).
    s = make_scaling(k)
    curvature = 2.0 * s.hermite[2] / np.diff(s.x_table) ** 2
    for y in (0.3, 0.5, 0.8, 0.95):
        i = int(np.searchsorted(s.y_table, y))
        x = s.x_table[i]
        fd = nth_derivative(s.f_prime, x, 1, h=0.02 * min(x, s.m_k - x))
        assert curvature[i] == pytest.approx(fd, rel=1e-10)
        assert curvature[i] == pytest.approx(-(k - 1) / s.y_table[i] ** (2 * k - 1), rel=1e-15)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8])
def test_tiny_arguments_converge_to_the_power_law(k):
    # In the first node bracket g^{-1}(y) = y^k/k (1 + O(y^(2k-2))).  From
    # the bracket midpoint Newton converges there only linearly, with
    # ratio (k-1)/k, and hit the step cap for k >= 6 below about 1e-91 m_k.
    s = make_scaling(k)
    xs = np.geomspace(1e-300, 1e-2, 100) * s.m_k
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        y = s.f(xs)
    law = (k * xs) ** (1.0 / k)
    assert np.all(np.abs(y / law - 1.0) <= 1e-13 + law ** (2 * k - 2))


@pytest.mark.parametrize("size", [8, 64, 4096])
def test_closed_form_bracket_matches_searchsorted(size, build_scaling):
    s = build_scaling(3, TABLE_SIZE=size)
    nodes = s.y_table
    y = np.concatenate([nodes, np.nextafter(nodes, 2.0), np.nextafter(nodes, -1.0),
                        np.random.default_rng(size).random(10**6)])
    y = np.clip(y, 0.0, 1.0)
    want = np.clip(np.searchsorted(nodes, y, side="right") - 1, 0, size - 2)
    assert np.array_equal(s._y_bracket(y), want)


@pytest.mark.parametrize("k,size", [(2, 4096), (3, 4096), (4, 4096), (6, 4096), (8, 4096),
                                    (3, 8), (3, 256)])
def test_guide_bracket_matches_searchsorted(k, size, build_scaling):
    s = build_scaling(k, TABLE_SIZE=size)
    nodes, buckets = s.x_table, len(s.x_guide)
    edges = np.arange(buckets + 1) * (s.m_k / buckets)
    x = np.concatenate([nodes, edges, [5e-324, 1e-300, 1e-30, np.nextafter(s.m_k, 2.0)],
                        np.random.default_rng(k).random(10**5) * s.m_k])
    x = np.concatenate([x, np.nextafter(x, 2.0), np.nextafter(x, -1.0)])
    x = x[x >= 0.0]
    want = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, size - 2)
    assert np.array_equal(scaling._bracket(nodes, s.x_guide, x), want)
    # Most buckets are answered from the table alone.
    assert np.mean(s.x_guide < 0) < 0.01 and np.mean(s.y_guide < 0) < 0.01


# float.hex of f from the midpoint-seeded solve, at the points _pinned_points(s)
# gives; the root is defined only to within the ~20 ulp rounding noise of
# g^{-1}, so a new seed may move it by that much.
PARENT_F = {
    2: """
        0x1.48c3d3a26c0b4p-20 0x1.a9b51a31b0757p-18 0x1.139e1b8464fc0p-15
        0x1.64e37b8326481p-13 0x1.ce1fb33030050p-11 0x1.2b31af683ba6dp-8
        0x1.836416ec33c60p-6 0x1.f4b6c979fad83p-4 0x1.30984b7fa4d8ep-1
        0x1.42da30bfc77c3p-1 0x1.d79a29bfa55b5p-1 0x1.759d6cce3fb7dp-2
        0x1.aba135760ddfbp-1 0x1.c84d6ed383e05p-1 0x1.0611583d44b8bp-1
        0x1.2373c53976c02p-2 0x1.3767d8b4e0e5bp-1 0x1.b956c1a8d81cfp-1
        0x1.a1b3a36b7c600p-1 0x1.d7f58d2266975p-2 0x1.798404669e516p-1
        0x1.bbfc97dc24b09p-1 0x1.76043e3d69aa4p-1 0x1.b3baa378f5c29p-1
        0x1.ec58060b9e22cp-1 0x1.befb3bfd26dd6p-1 0x1.6a75f624beae5p-1
        0x1.05a63b6c496f9p-1 0x1.581382a9c7806p-1 0x1.930b9905c9724p-1
        0x1.e308480582ecfp-1 0x1.d10c3c472fbf6p-1 0x1.4bed330fd29dap-1
        0x1.e74d586c52bf4p-1 0x1.86795f4fe2318p-1 0x1.c140365cccaa9p-1
        0x1.924c353202c61p-2 0x1.8d799be092caep-2 0x1.0ee41b51a977bp-1
        0x1.e21cb5eeca5d9p-1 0x1.be47fb8dac508p-1 0x1.dd0fc01fee927p-1
        0x1.b65d9c1a13107p-1 0x1.70163bfd61e6ap-1 0x1.94b1d23b0dfabp-1
        0x1.a9ef83bd33677p-1 0x1.def5a80aed24cp-1 0x1.7b7587b77c587p-1
        0x1.e32bd8e3dc804p-1 0x1.af06e6ee7dc6fp-1 0x1.da041b131e184p-1
        0x1.8f14c0df4155fp-1 0x1.c0fd739275409p-1 0x1.551e5a1fe01c6p-1
        0x1.968b185f3f9cbp-1 0x1.1783cd4e84399p-1 0x1.86663231ba0c4p-2
        0x1.e93e973986447p-3 0x1.c2f4bcb854c2dp-1 0x1.81b08a42aa839p-1
        0x1.e3e7db5e3b5d3p-1 0x1.daec664cb92f8p-1 0x1.67f119d769fe2p-1
        0x1.ed058ba4191d2p-1
    """.split(),
    3: """
        0x1.cf519fad7aeb5p-14 0x1.5abec4e674d49p-12 0x1.03808bd0f0651p-10
        0x1.846b7b1c6aa4dp-9 0x1.22b0f30ef8f88p-7 0x1.b31a70f235107p-6
        0x1.45a0bed58ebd4p-4 0x1.e7492de692717p-3 0x1.f09a3e972fd91p-2
        0x1.586629f99f7bap-1 0x1.e135d50a5c280p-1 0x1.bee8774812ac3p-1
        0x1.00197ced16412p-1 0x1.9ca1fbb4cbb33p-1 0x1.a8638fe215a1cp-1
        0x1.300701da9d2c9p-1 0x1.d86c449e98133p-1 0x1.105cb5748af02p-1
        0x1.90ca2c66bd10ep-1 0x1.b1322032e48d2p-1 0x1.9bf537fd57de4p-1
        0x1.bfcf785e8d828p-1 0x1.d8e228549bd13p-1 0x1.f0efccdfeb6f6p-1
        0x1.6c5afb6689b1ap-1 0x1.cb082a62e5013p-1 0x1.d2c0fc532e84ep-1
        0x1.6fa6e9bd7d4eep-1 0x1.0264585e568dfp-3 0x1.f24f69be3506dp-1
        0x1.71ce5ef4450d7p-1 0x1.778b7144c4fc2p-1 0x1.eb232dd4a10cep-1
        0x1.bf7e3bd25e150p-1 0x1.a67d50849facfp-1 0x1.ddae4fe0fc70ep-1
        0x1.607712b091e01p-2 0x1.d463cbd51f019p-1 0x1.8ba5addafc502p-1
        0x1.fa4b5a18f935dp-2 0x1.cd0aab314c0d3p-1 0x1.eed47a119b06fp-1
        0x1.4a43b0d7b8d2bp-1 0x1.c7d3f2f77ae61p-1 0x1.71b76dea3b3cap-1
        0x1.d96ebd3c59b4dp-1 0x1.d6a3c358e29f9p-1 0x1.4ff04d86b890fp-1
        0x1.e496c10f923abp-1 0x1.cc9140fe52ea0p-1 0x1.d0a893a7abe4fp-1
        0x1.e374b371c5c5dp-1 0x1.9b666721a28fap-1 0x1.dbc0fb8937a7cp-1
        0x1.e9d1e94263f29p-1 0x1.072e14621982dp-1 0x1.e6ce0940ac93ap-1
        0x1.91968525d37c0p-1 0x1.a88aefa77cea9p-1 0x1.2794923600420p-1
        0x1.d317e4c672a69p-1 0x1.6f5e364a93089p-1 0x1.e911ce01f23dbp-1
        0x1.68da67133d6eep-1
    """.split(),
    6: """
        0x1.5407788c2df4fp-7 0x1.262894e40bbdap-6 0x1.fcf3aa8c9c0a5p-6
        0x1.b84b0af79229fp-5 0x1.7ce58b1d1964fp-4 0x1.49834c586d02ap-3
        0x1.1d0f95198a892p-2 0x1.ed3366c4fcc02p-2 0x1.d74943407d812p-1
        0x1.b9277dfaab732p-1 0x1.be10aabae87e6p-1 0x1.bf0df5011e321p-1
        0x1.f93475919ab23p-1 0x1.e198be1d80083p-1 0x1.e57beb6da02c4p-1
        0x1.b679aedccacd1p-1 0x1.e5faf34c8975bp-1 0x1.7624d05a4bbd5p-1
        0x1.4434191af51fdp-1 0x1.f26926bf5a5e9p-1 0x1.e3ad8bc3e9df4p-2
        0x1.f8d9bd1248b5ap-1 0x1.f0ff6b9c8fc14p-1 0x1.ee3d8a5a09a68p-1
        0x1.404a566a0abe9p-1 0x1.976cea3b1ddbdp-1 0x1.f26436bcbf5d6p-1
        0x1.c8c7d13aed11bp-1 0x1.e1136ad71ae47p-1 0x1.75cc4533174ebp-1
        0x1.906c45a64c7f6p-1 0x1.d218e3a26d034p-1 0x1.ec669c4040e7bp-1
        0x1.d77d9abd1acafp-1 0x1.6d9ad18669ed9p-1 0x1.f356aba50af78p-1
        0x1.7e09c9622491fp-1 0x1.c9e273408624bp-1 0x1.dcdd67c585b9fp-1
        0x1.b438163eae1e1p-1 0x1.c67e5849e2e48p-1 0x1.f47cf93abc86cp-1
        0x1.cc0ea7fd97620p-1 0x1.d76ac39d89cbcp-1 0x1.f880dd6c672f4p-1
        0x1.aa698abf8f01fp-1 0x1.f4e7b73673e71p-1 0x1.bcba53a246679p-1
        0x1.b2b1f21b067b4p-1 0x1.f42e2af44c48ep-1 0x1.5127ce7811066p-1
        0x1.f35d7d8d7ed7ap-1 0x1.f10bae78ab437p-1 0x1.f4e6b2d27a74ap-1
        0x1.4c106060337e9p-1 0x1.a0bb92a31b913p-1 0x1.ed88edefcd719p-1
        0x1.c974443255db5p-1 0x1.bbde8e4a2a142p-2 0x1.e7159488e170ep-1
        0x1.ef3b81aad3cd0p-1 0x1.f8a2cc32c8ebfp-1 0x1.82cf2b121b84dp-1
        0x1.a44e6b1ca6e81p-1
    """.split(),
}


def _pinned_points(s):
    return (s.m_k - s.series_radius_guard) * np.concatenate(
        [np.geomspace(1e-12, 1e-2, 8), np.random.default_rng(s.k).random(56)])


@pytest.mark.parametrize("k", sorted(PARENT_F))
def test_f_stays_within_32_ulp_of_pinned_values(k):
    s = make_scaling(k)
    want = np.array([float.fromhex(h) for h in PARENT_F[k]])
    assert np.all(np.abs(s.f(_pinned_points(s)) - want) <= 32 * np.spacing(want))


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_roundtrip_error_stays_at_rounding_level(k):
    s = make_scaling(k)
    xs = np.random.default_rng(k).uniform(0.0, s.m_k - s.series_radius_guard, 200_000)
    assert np.max(np.abs(s.f_inverse(s.f(xs)) - xs)) <= 2e-15 * s.m_k


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
    # The node table's sure answers, then the unsure points inverted.
    got, unsure = s.at_most_by_nodes(ys, xs)
    got[unsure] = s.f_inverse(ys[unsure]) <= xs[unsure]
    want = s.f_inverse(ys) <= xs
    assert np.array_equal(got, want)

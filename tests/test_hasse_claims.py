"""The Hasse routes' error claims against mpmath's independent built-ins.

Every draw is checked by conftest.assert_claim, for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

with the reference from mp.stieltjes, mp.psi or mp.zeta.  The claim adds the
rounding of the binomial head and an integral of the tail integrand's
error, whose 1/Gamma derivatives come from engine values of psi^(i) and
log Gamma.  The tail's tables are shared across calls
(``hurwitz._tail_table``): a draw costs 0.05-0.5 s once the tables for its
precision and r = max(0, ceil(1 - s)) exist, and up to about a second when it
builds them.  Draws: Stieltjes index 0-12, x log-uniform in [0.1, 10],
s in [-3, 4] off the pole, derivative order 0-2, 20 and 30 digits.  At
large s, where the tail integrand peaks far out, zeta_hasse is pinned at
s = 3000 and 1e6, and at negative s, where the tail's weights
Delta_i[y^r](x) sum to 4e14 in modulus, at six points, two of them below
s = -30, where the head's rounding grows like (N + x)^(1-s).  Past m = 12 it
is pinned at four points and at m = 20, where it meets 20 digits since
the 1/Gamma derivatives' inputs run jmax digits past the request.  Next
to the pole, at s = 1 +- 2^-k, zeta_hasse and zeta_srivastava_choi are
checked alike.  Past x = 20 the claim falls short at 20 digits while the
result reads converged, because the tail's value integral stops on two
coarse tanh-sinh levels that both miss its peak; four such points are
pinned as strict xfails.
"""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes.constants import digamma_hasse_series, hasse_gamma
from stieltjes.core import PrecisionConfig, SeriesResult
from stieltjes.hurwitz import zeta_hasse, zeta_srivastava_choi

from conftest import CLAIM_CHECKS, assert_claim, assert_covers

DIGITS = st.sampled_from([20, 30])
X = st.floats(-1, 1).map(lambda e: 10 ** e)


def _check(res, reference, digits, converges=True):
    if converges:
        assert_claim(res, reference, digits)
    else:
        assert_covers(res, reference, digits)
    assert res.terms_used > 0


@settings(max_examples=10)
@given(m=st.integers(0, 12), x=X, digits=DIGITS)
def test_hasse_gamma_claim(m, x, digits):
    res = hasse_gamma(m, x, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.stieltjes(m, x), digits)


@settings(max_examples=6)
@given(x=X, digits=DIGITS)
def test_digamma_hasse_series_claim(x, digits):
    res = digamma_hasse_series(x, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.psi(0, x), digits)


@settings(max_examples=5)
@given(s=st.floats(-3, 4).filter(lambda s: abs(s - 1) > 1e-8), x=X,
       deriv=st.integers(0, 2), digits=DIGITS)
def test_zeta_hasse_claim(s, x, deriv, digits):
    res = zeta_hasse(s, x, deriv, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.zeta(s, x, deriv), digits)


@pytest.mark.parametrize("s", [3000, 10 ** 6])
def test_zeta_hasse_claim_at_large_s(s):
    # the tail integrand t^(s-2) e^(-t) peaks at t = s - 2, which the
    # quadrature's nodes on [1, inf) stepped over: 1e6 printed 4.09e-6
    res = zeta_hasse(s, 1, 0, PrecisionConfig(digits=20))
    _check(res, lambda: mp.zeta(s, 1), 20)


@pytest.mark.parametrize("m,x,converges", [
    (13, mpf(7) / 4, True), (14, mpf(1) / 3, True),
    (15, mpf(7) / 4, True), (16, mpf(1) / 3, True), (20, mpf(1) / 3, True)])
def test_hasse_gamma_claim_past_m12(m, x, converges):
    # with the 1/Gamma derivatives' inputs at the request's digits, m = 14
    # to 20 missed 20 digits: hasse_gamma(20, 1/3) claimed 9e-12
    res = hasse_gamma(m, x, PrecisionConfig(digits=20))
    _check(res, lambda: mp.stieltjes(m, x), 20, converges)


@pytest.mark.parametrize("s,x,deriv,digits", [
    (mpf(-41) / 3, mpf(9) / 10, 0, 20), (mpf(-41) / 3, mpf(9) / 10, 0, 30),
    (mpf(-41) / 3, mpf(9) / 10, 0, 50), (mpf(-29) / 4, mpf(5) / 2, 1, 30),
    (mpf(-61) / 2, mpf(9) / 10, 0, 20), (mpf(-81) / 2, mpf(9) / 10, 0, 20)])
def test_zeta_hasse_claim_at_negative_s(s, x, deriv, digits):
    # r = ceil(1 - s) = 15 or 9: the tail's integrals enter weighted by
    # Delta_i[y^r](x), whose moduli sum to 4e14 or 4e7, and run at the
    # request's digits they claimed 9.6e-16 at 20 digits (actual 5e-28).
    # Below s = -30 the head's rounding grows like (N + x)^(1-s): with N + 64
    # guard bits -61/2 ended unconverged and -81/2 claimed 5e13
    res = zeta_hasse(s, x, deriv, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.zeta(s, x, deriv), digits, converges=True)


@pytest.mark.parametrize("k", [10, 30, 60])
@pytest.mark.parametrize("side", [1, -1])
def test_claims_next_to_the_pole(k, side):
    # s - 1 must keep its working precision through both routes
    s = 1 + side * mpf(2) ** -k
    x = mpf(1) / 3
    cfg = PrecisionConfig(digits=20)
    for deriv in (0, 1):
        _check(zeta_hasse(s, x, deriv, cfg),
               lambda: mp.zeta(s, x, deriv), 20)
    _check(zeta_srivastava_choi(s, x, cfg), lambda: mp.zeta(s, x), 20)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Hasse overclaims past x = 20: the tail's value "
                   "integral stops after two tanh-sinh levels (35 "
                   "evaluations) that agree while both miss its peak "
                   "near t = N/(x+i) (ROADMAP items 5 and 7)")
@pytest.mark.parametrize("route,reference", [
    (lambda c: zeta_hasse(3, 40, 0, c), lambda: mp.zeta(3, 40)),
    (lambda c: zeta_hasse(2, 100, 0, c), lambda: mp.zeta(2, 100)),
    (lambda c: hasse_gamma(0, 40, c), lambda: mp.stieltjes(0, 40)),
    (lambda c: hasse_gamma(3, 100, c), lambda: mp.stieltjes(3, 100))],
    ids=["zeta-3-40", "zeta-2-100", "gamma-0-40", "gamma-3-100"])
def test_claim_at_large_x(route, reference):
    # converged, with claims 1.35e-25, 1.96e-36, 1.59e-24 and 9.63e-35
    # where the values are 4.7e-25, 1.69e-35, 1.75e-24 and 2.85e-34 off;
    # the tail's value integral alone claims 2.7e-25 for (3, 40) and is
    # 9.4e-25 off, against mp.quad split at its peak
    assert_claim(route(PrecisionConfig(digits=20)), reference, 20)


def test_the_helpers_fail_a_result_off_by_twice_its_claim():
    # the xfails above mean something only if an overclaim fails
    err = mpf(10) ** -25
    res = SeriesResult(mp.zeta(3) + 2 * err, err, 1, mpf(10) ** -20)
    assert res.converged
    for helper in (assert_covers, assert_claim):
        with pytest.raises(AssertionError, match="actual"):
            helper(res, lambda: mp.zeta(3), 20)


def test_the_second_stage_settles_an_absolute_reference():
    # a reference good to 10^-dps in absolute terms misses a claim of
    # 1e-130 on a value of 1e-100 at first, and meets it on the second try
    value, err = mpf(10) ** -100, mpf(10) ** -130
    res = SeriesResult(value, err, 1, mpf(10) ** -30)
    before = dict(CLAIM_CHECKS)
    assert_claim(res, lambda: value + mpf(10) ** -mp.dps, 30)
    assert CLAIM_CHECKS["all"] == before["all"] + 1
    assert CLAIM_CHECKS["second"] == before["second"] + 1

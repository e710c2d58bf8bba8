"""The Hasse routes' error claims against mpmath's independent built-ins.

Every draw is checked for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

with the reference from mp.stieltjes, mp.psi or mp.zeta at 20 digits beyond
the request, or beyond the claim where that is tighter.  The claim adds the
rounding of the binomial head and an integral of the tail integrand's
error, whose 1/Gamma derivatives come from engine values of psi^(i) and
log Gamma.  The tail's tables are shared across calls
(``hurwitz._tail_table``): a draw costs 0.05-0.5 s once the tables for its
precision and r = max(0, ceil(1 - s)) exist, and up to about a second when it
builds them.  Draws: Stieltjes index 0-12, x log-uniform in [0.1, 10],
s in [-3, 4] off the pole, derivative order 0-2, 20 and 30 digits.  At
large s, where the tail integrand peaks far out, zeta_hasse is pinned at
s = 3000 and 1e6, and at negative s, where the tail's weights
Delta_i[y^r](x) sum to 4e14 in modulus, at four points.  Past m = 12 it
is pinned at four points and at m = 20, where it meets 20 digits since
the 1/Gamma derivatives' inputs run jmax digits past the request.  Next
to the pole, at s = 1 +- 2^-k, zeta_hasse and zeta_srivastava_choi are
checked alike.
"""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes.constants import digamma_hasse_series, hasse_gamma
from stieltjes.core import PrecisionConfig
from stieltjes.hurwitz import zeta_hasse, zeta_srivastava_choi

DIGITS = st.sampled_from([20, 30])
X = st.floats(-1, 1).map(lambda e: 10 ** e)


def _check(res, reference, digits, converges=True):
    # the reference's own error must sit far below the claim it judges
    with mp.workdps(max(digits, -int(mp.log10(res.err_estimate))) + 20):
        ref = reference()
        actual = abs(res.value - ref)
        assert actual <= res.err_estimate, (
            f"actual {mp.nstr(actual, 3)} > claimed "
            f"{mp.nstr(res.err_estimate, 3)}")
        if converges:
            assert res.err_estimate <= mpf(10) ** -digits * max(1, abs(ref))
            assert res.converged
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
    (mpf(-41) / 3, mpf(9) / 10, 0, 50), (mpf(-29) / 4, mpf(5) / 2, 1, 30)])
def test_zeta_hasse_claim_at_negative_s(s, x, deriv, digits):
    # r = ceil(1 - s) = 15 or 9: the tail's integrals enter weighted by
    # Delta_i[y^r](x), whose moduli sum to 4e14 or 4e7, and run at the
    # request's digits they claimed 9.6e-16 at 20 digits (actual 5e-28)
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

"""The oscillatory routes' claims against mpmath's built-ins.

Briggs (gamma_m, m in {0, 1}), Poisson (zeta(s, x), s in (1, 8]) and
Bourguet (log Gamma) shift x up to 1 by their recurrences and sum their
n-sums of oscillatory integrals as one rotated integral.  Every draw is
checked by conftest.assert_claim, for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

with the reference from mp.stieltjes, mp.zeta or mp.loggamma.  x is
log-uniform in [1/100, 100] and s uniform in (1, 8], both binary floats, so
each input is exact at every precision; digits run from 10 to 50.
"""

from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes.constants import briggs_gamma
from stieltjes.core import PrecisionConfig
from stieltjes.gammafuncs import bourguet_log_gamma
from stieltjes.hurwitz import poisson_zeta

from conftest import assert_claim

DIGITS = st.integers(10, 50)
X = st.floats(-2, 2).map(lambda e: mpf(10 ** e))
S = st.floats(1, 8, exclude_min=True).map(mpf)


@settings(max_examples=10)
@given(m=st.integers(0, 1), x=X, digits=DIGITS)
def test_briggs_claim(m, x, digits):
    res = briggs_gamma(m, x, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: mp.stieltjes(m, x), digits)


@settings(max_examples=10)
@given(s=S, x=X, digits=DIGITS)
def test_poisson_claim(s, x, digits):
    res = poisson_zeta(s, x, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: mp.zeta(s, x), digits)


@settings(max_examples=10)
@given(x=X, digits=DIGITS)
def test_bourguet_claim(x, digits):
    res = bourguet_log_gamma(x, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: mp.loggamma(x), digits)

"""The Euler-Maclaurin engine at x far from 1, against mpmath.

tests/test_em_engine.py draws x in [1e-2, 1e5]; here x is log-uniform over
[1e-60, 1e-2] and [1e5, 1e30], for psi, log Gamma, zeta^(j)(s, x) with
j <= 3 and s in [-40, 40], and gamma_m(x) with m <= 6, at 20 and 50 digits.
Each draw is checked by conftest.assert_claim.  mpmath's own zeta and
Stieltjes constants are slow or do not return at some of these x, so the
references take other, equally independent routes there (conftest.zeta_ref,
from Hermite's integral; the recurrence gamma_m(x) = gamma_m(x + 1)
+ log(x)^m / x below x = 1, since mp.stieltjes does not return at
x = 1e-60).

The engine's caches (plans and Bernoulli tables, per precision) must not
make a result depend on the calls made before it.
"""

from hypothesis import given, settings, strategies as st
from mpmath import libmp, mp, mpf

from conftest import assert_claim, zeta_ref
from stieltjes import kernels
from stieltjes.constants import em_gamma
from stieltjes.core import PrecisionConfig
from stieltjes.gammafuncs import digamma, log_gamma
from stieltjes.kernels import hurwitz_zeta_em

X = st.one_of(st.floats(-60, -2), st.floats(5, 30)).map(lambda e: 10 ** e)
DIGITS = st.sampled_from([20, 50])


@settings(max_examples=40)
@given(x=X, digits=DIGITS)
def test_log_gamma_and_digamma(x, digits):
    cfg = PrecisionConfig(digits=digits)
    assert_claim(log_gamma(x, cfg), lambda: mp.loggamma(x), digits)
    assert_claim(digamma(x, cfg), lambda: mp.psi(0, x), digits)


@settings(max_examples=60)
@given(s=st.floats(-40, 40).filter(lambda s: s != 1), x=X,
       deriv=st.integers(0, 3), digits=DIGITS)
def test_zeta(s, x, deriv, digits):
    res = hurwitz_zeta_em(s, x, deriv, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: zeta_ref(s, x, deriv), digits)


@settings(max_examples=30)
@given(m=st.integers(0, 6), x=X, digits=DIGITS)
def test_stieltjes(m, x, digits):
    def reference():
        if x > 1:
            return mp.stieltjes(m, x)
        return mp.log(x) ** m / x + mp.stieltjes(m, mpf(x) + 1)

    assert_claim(em_gamma(m, x, PrecisionConfig(digits=digits)), reference,
                 digits)


def _calls():
    x = mpf(3) / 8
    cfg = PrecisionConfig(digits=30)
    return [hurwitz_zeta_em(mpf(5) / 2, x, 2, cfg), digamma(x, cfg),
            hurwitz_zeta_em(-7, x, 1, cfg)]


def _bits(results):
    return [(r.value._mpf_, r.err_estimate._mpf_) for r in results]


def test_warm_calls_equal_cold_calls():
    kernels._em_plan.cache_clear()
    kernels._em_bernoulli.cache_clear()
    libmp.gammazeta.bernoulli_cache.clear()  # mpmath's own B_n tables
    cold = _bits(_calls())
    for digits in (20, 50, 31, 100):
        cfg = PrecisionConfig(digits=digits)
        hurwitz_zeta_em(mpf(5) / 2, 3, 2, cfg)
        em_gamma(4, mpf(1) / 7, cfg)
    assert _bits(_calls()) == cold

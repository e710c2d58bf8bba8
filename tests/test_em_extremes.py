"""The Euler-Maclaurin engine at x far from 1, against mpmath.

tests/test_em_engine.py draws x in [1e-2, 1e5]; here x is log-uniform over
[1e-60, 1e-2] and [1e5, 1e30], for psi, log Gamma, zeta^(j)(s, x) with
j <= 3 and s in [-40, 40], and gamma_m(x) with m <= 6, at 20 and 50 digits.
Each draw is checked by conftest.assert_claim.  mpmath's own zeta and
Stieltjes constants are slow or do not return at some of these x, so the
references take other, equally independent routes there (_zeta_ref; the
recurrence gamma_m(x) = gamma_m(x + 1) + log(x)^m / x below x = 1, since
mp.stieltjes does not return at x = 1e-60).

The engine's caches (plans and Bernoulli tables, per precision) must not
make a result depend on the calls made before it.
"""

from hypothesis import given, settings, strategies as st
from mpmath import libmp, mp, mpf

from conftest import assert_claim
from stieltjes import kernels
from stieltjes.constants import em_gamma
from stieltjes.core import PrecisionConfig
from stieltjes.gammafuncs import digamma, log_gamma
from stieltjes.kernels import hurwitz_zeta_em

X = st.one_of(st.floats(-60, -2), st.floats(5, 30)).map(lambda e: 10 ** e)
DIGITS = st.sampled_from([20, 50])


def _zeta_ref(s, x, deriv):
    """zeta^(deriv)(s, x).  Above x = 1 from Hermite's integral,

        zeta(s, x) = x^-s/2 + x^(1-s)/(s-1)
                     + 2 int_0^inf Im((x - it)^-s) / (e^(2 pi t) - 1) dt,

    differentiated under the integral: mp.zeta takes 12 s at s = -20.1,
    x = 1e6 (60 digits) and does not return at x = 1e9.  Below x = 1,
    mp.zeta, or for |s| < 1e-30 its Taylor series at s = 0, because
    mp.zeta divides by zero at some tiny negative s (mpmath 1.3)."""
    s, x = mpf(s), mpf(x)
    if x < 1:
        if abs(s) < 1e-30:
            return mp.fsum(s ** k / mp.factorial(k) * mp.zeta(0, x, deriv + k)
                           for k in range(5))
        return mp.zeta(s, x, deriv)
    L = -mp.log(x)
    ends = L ** deriv * x ** -s / 2 + mp.fsum(
        mp.binomial(deriv, k) * L ** k * x ** (1 - s) * (-1) ** (deriv - k)
        * mp.factorial(deriv - k) / (s - 1) ** (deriv - k + 1)
        for k in range(deriv + 1))

    # mp.quad stops on an absolute error, so the integrand, near
    # -s t x^(-s-1) log(x)^deriv / (2 pi t), is scaled to about 1
    c = x ** (s + 1) / max(1, abs(L)) ** deriv

    def f(t):
        z = mp.mpc(x, -t)
        return (c * ((-mp.log(z)) ** deriv * z ** -s).imag
                / mp.expm1(2 * mp.pi * t))

    return ends + 2 * mp.quad(f, [0, mp.inf]) / c


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
    assert_claim(res, lambda: _zeta_ref(s, x, deriv), digits)


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

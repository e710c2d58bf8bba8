"""The Hasse routes' error claims against mpmath's independent built-ins.

Every draw is checked for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

with the reference from mp.stieltjes, mp.psi or mp.zeta at digits + 20.
The claim adds the rounding of the binomial head and an integral of the
tail integrand's error, whose 1/Gamma derivatives come from engine values
of psi^(i) and log Gamma.  Each call costs about a second, so the draws
are few: Stieltjes index 0-12, x log-uniform in [0.1, 10], s in [-3, 4]
off the pole, derivative order 0-2, 20 and 30 digits.
"""

from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes.constants import digamma_hasse_series, hasse_gamma
from stieltjes.core import PrecisionConfig
from stieltjes.hurwitz import zeta_hasse

DIGITS = st.sampled_from([20, 30])
X = st.floats(-1, 1).map(lambda e: 10 ** e)


def _check(res, reference, digits):
    with mp.workdps(digits + 20):
        ref = reference()
        actual = abs(res.value - ref)
        assert actual <= res.err_estimate, (
            f"actual {mp.nstr(actual, 3)} > claimed "
            f"{mp.nstr(res.err_estimate, 3)}")
        assert res.err_estimate <= mpf(10) ** -digits * max(1, abs(ref))
        assert res.converged
        assert res.terms_used > 0


@settings(max_examples=5)
@given(m=st.integers(0, 12), x=X, digits=DIGITS)
def test_hasse_gamma_claim(m, x, digits):
    res = hasse_gamma(m, x, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.stieltjes(m, x), digits)


@settings(max_examples=3)
@given(x=X, digits=DIGITS)
def test_digamma_hasse_series_claim(x, digits):
    res = digamma_hasse_series(x, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.psi(0, x), digits)


@settings(max_examples=4)
@given(s=st.floats(-3, 4).filter(lambda s: abs(s - 1) > 1e-8), x=X,
       deriv=st.integers(0, 2), digits=DIGITS)
def test_zeta_hasse_claim(s, x, deriv, digits):
    res = zeta_hasse(s, x, deriv, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.zeta(s, x, deriv), digits)

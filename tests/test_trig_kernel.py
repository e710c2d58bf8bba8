"""The trigonometric-sum kernel against closed forms from mpmath's built-ins.

Each family's sum has a closed form in mp.loggamma, mp.psi or mp.zeta,
which share no code with the kernel; references are computed at
digits + 20.  Every draw is checked for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

over x in [0.01, 0.99] and digits in {20, 30, 50}.
"""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes import kernels
from stieltjes.core import PrecisionConfig
from stieltjes.kernels import sum_trig_averaged

DIGITS = st.sampled_from([20, 30, 50])
X = st.floats(0.01, 0.99)


def _glog():
    return mp.euler + mp.log(2 * mp.pi)


def _check(coeff, mode, x, digits, reference, odd_multiples=False):
    res = sum_trig_averaged(coeff, mode, x, PrecisionConfig(digits=digits),
                            odd_multiples=odd_multiples)
    with mp.workdps(digits + 20):
        ref = reference()
        actual = abs(res.value - ref)
        assert actual <= res.err_estimate, (
            f"actual {mp.nstr(actual, 3)} > claimed "
            f"{mp.nstr(res.err_estimate, 3)}")
        assert res.err_estimate <= mpf(10) ** -digits * max(1, abs(ref))
        assert res.converged
    return res


@settings(max_examples=100)
@given(x=X, digits=DIGITS, mode=st.sampled_from(["sin", "cos"]))
def test_reciprocal(x, digits, mode):
    # sawtooth pi (1/2 - x) and log-sine -log(2 sin pi x)
    x = mpf(x)
    ref = ((lambda: mp.pi * (mpf(1) / 2 - x)) if mode == "sin"
           else (lambda: -mp.log(2 * mp.sinpi(x))))
    _check(lambda n: mpf(1) / n, mode, x, digits, ref)


@settings(max_examples=60)
@given(x=X, digits=DIGITS)
def test_log_over_n_sine(x, digits):
    # Kummer's series for log Gamma
    x = mpf(x)
    _check(lambda n: mp.log(n) / n, "sin", x, digits,
           lambda: mp.pi * (mp.loggamma(x) - mp.log(mp.pi / mp.sinpi(x)) / 2
                            - _glog() * (mpf(1) / 2 - x)))


@settings(max_examples=60)
@given(x=X, digits=DIGITS)
def test_log_over_n_cosine(x, digits):
    # (zeta''(0, x) + zeta''(0, 1 - x))/2 + (gamma + log 2 pi) log(2 sin pi x)
    x = mpf(x)
    _check(lambda n: mp.log(n) / n, "cos", x, digits,
           lambda: ((mp.zeta(0, x, 2) + mp.zeta(0, 1 - x, 2)) / 2
                    + _glog() * mp.log(2 * mp.sinpi(x))))


@settings(max_examples=60)
@given(x=X, digits=DIGITS)
def test_log_ratio_odd_sine(x, digits):
    # sum log(1 + 1/n) sin((2n+1) pi x), eq. 3.16
    x = mpf(x)
    _check(lambda n: mp.log(1 + mpf(1) / n), "sin", x, digits,
           lambda: -(mp.psi(0, x) * mp.sinpi(x) + mp.pi / 2 * mp.cospi(x)
                     + _glog() * mp.sinpi(x)),
           odd_multiples=True)


@settings(max_examples=50)
@given(x=X, digits=DIGITS, s=st.floats(-2, 0.95),
       mode=st.sampled_from(["sin", "cos"]))
def test_hurwitz_power(x, digits, s, mode):
    # the sums of Hurwitz's formula, coefficient (2 pi n)^(s-1), read off
    # the polylogarithm: (2 pi)^(s-1) Li_(1-s)(e^(2 pi i x)); the formula's
    # own quotient by sin(pi s/2) or cos(pi s/2) is 0/0 at s = 0, -1, -2
    x, s = mpf(x), mpf(s)

    def ref():
        li = (2 * mp.pi) ** (s - 1) * mp.polylog(1 - s, mp.expjpi(2 * x))
        return li.real if mode == "cos" else li.imag

    _check(lambda n: (2 * mp.pi * n) ** (s - 1), mode, x, digits, ref)


@pytest.mark.parametrize("x", ["0.37", "0.1234", "0.0517"])
def test_generic_x_needs_no_long_period(x):
    # a Cesaro window from continued-fraction denominators took 40 s and
    # 331,776 terms at 0.37 and stopped unconverged at 0.1234
    x = mpf(x)
    res = _check(lambda n: mpf(1) / n, "cos", x, 20,
                 lambda: -mp.log(2 * mp.sinpi(x)))
    assert res.terms_used <= 2000


def test_coefficients_not_completely_monotone_are_unconverged(monkeypatch):
    # (-1)^n / n fails the sign check at every head length: no bound holds
    monkeypatch.setattr(kernels, "TERM_CAP", 3000)
    res = sum_trig_averaged(lambda n: mpf(-1) ** n / n, "cos", mpf("0.3"),
                            PrecisionConfig(digits=20))
    assert not res.converged
    assert res.err_estimate == mp.inf
    assert res.terms_used <= 3000

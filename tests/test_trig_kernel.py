"""The trigonometric-sum kernel against closed forms from mpmath's built-ins.

Each family's sum has a closed form in mp.loggamma, mp.psi, mp.zeta or
mp.polylog, which share no code with the kernel.  Every draw is checked by
conftest.assert_claim, for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

with each reference taken at the exact x the kernel was given, over x in
[0.01, 0.99], and over rationals p/q with q <= 1000 and points within 1e-3
of either end, at digits in {20, 30, 50}.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes import kernels
from stieltjes.core import PrecisionConfig
from stieltjes.hurwitz import zeta_fourier
from stieltjes.kernels import sum_trig_averaged

from conftest import assert_claim, exact

DIGITS = st.sampled_from([20, 30, 50])
X = st.floats(0.01, 0.99)


def _glog():
    return mp.euler + mp.log(2 * mp.pi)


def _check(coeff, mode, x, digits, reference, odd_multiples=False):
    """The kernel's sum at x against reference(x), with x exact."""
    res = sum_trig_averaged(coeff, mode, x, PrecisionConfig(digits=digits),
                            odd_multiples=odd_multiples)
    assert_claim(res, lambda: reference(exact(x)), digits)
    return res


def _check_family(family, mode, x, digits, s=None):
    """_check on one of the four coefficient families; log1p is a sine over
    odd multiples."""
    if family == "recip":
        # sawtooth pi (1/2 - x) and log-sine -log(2 sin pi x)
        coeff, odd = (lambda n: mpf(1) / n), False
        ref = ((lambda x: mp.pi * (mpf(1) / 2 - x)) if mode == "sin"
               else (lambda x: -mp.log(2 * mp.sinpi(x))))
    elif family == "logn" and mode == "sin":
        # Kummer's series for log Gamma
        coeff, odd = (lambda n: mp.log(n) / n), False
        ref = (lambda x: mp.pi * (mp.loggamma(x)
                                  - mp.log(mp.pi / mp.sinpi(x)) / 2
                                  - _glog() * (mpf(1) / 2 - x)))
    elif family == "logn":
        coeff, odd = (lambda n: mp.log(n) / n), False
        ref = (lambda x: (mp.zeta(0, x, 2) + mp.zeta(0, 1 - x, 2)) / 2
               + _glog() * mp.log(2 * mp.sinpi(x)))
    elif family == "log1p":
        # sum log(1 + 1/n) sin((2n+1) pi x), eq. 3.16
        coeff, odd, mode = (lambda n: mp.log(1 + mpf(1) / n)), True, "sin"
        ref = (lambda x: -(mp.psi(0, x) * mp.sinpi(x)
                           + mp.pi / 2 * mp.cospi(x) + _glog() * mp.sinpi(x)))
    else:
        coeff, odd = (lambda n: (2 * mp.pi * n) ** (s - 1)), False

        def ref(x):
            # mp.polylog loses about log10(1/d) digits at an order d from
            # an integer (exact integers take their own formula)
            d = abs(s - mp.nint(s))
            with mp.extradps(int(-mp.log10(d)) + 1 if d else 0):
                li = ((2 * mp.pi) ** (s - 1)
                      * mp.polylog(1 - s, mp.expjpi(2 * x)))
            return li.real if mode == "cos" else li.imag
    return _check(coeff, mode, x, digits, ref, odd)


@settings(max_examples=100)
@given(x=X, digits=DIGITS, mode=st.sampled_from(["sin", "cos"]))
def test_reciprocal(x, digits, mode):
    _check_family("recip", mode, x, digits)


@settings(max_examples=60)
@given(x=X, digits=DIGITS)
def test_log_over_n_sine(x, digits):
    _check_family("logn", "sin", x, digits)


@settings(max_examples=60)
@given(x=X, digits=DIGITS)
def test_log_over_n_cosine(x, digits):
    # (zeta''(0, x) + zeta''(0, 1 - x))/2 + (gamma + log 2 pi) log(2 sin pi x)
    _check_family("logn", "cos", x, digits)


@settings(max_examples=60)
@given(x=X, digits=DIGITS)
def test_log_ratio_odd_sine(x, digits):
    _check_family("log1p", "sin", x, digits)


@settings(max_examples=50)
@given(x=X, digits=DIGITS, s=st.floats(-2, 0.95),
       mode=st.sampled_from(["sin", "cos"]))
def test_hurwitz_power(x, digits, s, mode):
    # the sums of Hurwitz's formula, coefficient (2 pi n)^(s-1), read off
    # the polylogarithm: (2 pi)^(s-1) Li_(1-s)(e^(2 pi i x)); the formula's
    # own quotient by sin(pi s/2) or cos(pi s/2) is 0/0 at s = 0, -1, -2.
    # The reference is the power family's, which raises its precision as
    # 1 - s nears an integer
    _check_family("power", mode, x, digits, mpf(s))


@pytest.mark.parametrize("x", ["0.37", "0.1234", "0.0517"])
def test_generic_x_needs_no_long_period(x):
    # a Cesaro window from continued-fraction denominators took 40 s and
    # 331,776 terms at 0.37 and stopped unconverged at 0.1234
    res = _check_family("recip", "cos", mpf(x), 20)
    assert res.terms_used <= 2000


def test_coefficients_not_completely_monotone_are_unconverged(monkeypatch):
    # (-1)^n / n fails the sign check at every head length: no bound holds
    monkeypatch.setattr(kernels, "TERM_CAP", 3000)
    res = sum_trig_averaged(lambda n: mpf(-1) ** n / n, "cos", mpf("0.3"),
                            PrecisionConfig(digits=20))
    assert not res.converged
    assert res.err_estimate == mp.inf
    assert res.terms_used <= 3000


# The tests below draw x over the whole of (0, 1).  The head's length grows
# like 1/x near the ends: 5e-4 already takes 16k terms at 20 digits and 39k
# at 50.
RATIONAL = st.integers(2, 1000).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q)))
NEAR_END = st.floats(5e-4, 1e-3).flatmap(
    lambda t: st.sampled_from([t, 1 - t]))


@settings(max_examples=60)
@given(family=st.sampled_from(["recip", "logn", "log1p", "power"]),
       mode=st.sampled_from(["sin", "cos"]), x=st.one_of(RATIONAL, NEAR_END),
       digits=DIGITS, s=st.integers(-200, 95))
def test_claims_hold_over_the_domain(family, mode, x, digits, s):
    # the integer head's phase drifts by up to 4n units of its last bit and
    # every coefficient is truncated once; the claim must cover both.  s
    # steps by 1/100, which keeps the polylogarithm's reference cheap
    _check_family(family, mode, x, digits, mpf(s) / 100)


@settings(max_examples=40)
@given(x=st.one_of(RATIONAL, NEAR_END), digits=DIGITS,
       mode=st.sampled_from(["sin", "cos"]), odd=st.booleans(),
       slope=st.sampled_from([0, 1]))
def test_rounding_claim_alone(x, digits, mode, odd, slope):
    # f(n) = M - slope n: Delta^2 f = 0, so the remainder bound is 0 once a
    # term vanishes and the claim is the rounding part alone, of the head
    # and of the tail's first terms.  The Abel sum of e^(i pi odd x)
    # sum f(n) z^n is e^(i pi odd x) (M z/(1 - z) - slope z/(1 - z)^2);
    # M exceeds every n summed, up to 40k terms here
    M = 2 ** 20

    def reference(x):
        z = mp.expjpi(2 * x)
        w = mp.expjpi(x if odd else 0) * (M * z / (1 - z)
                                          - slope * z / (1 - z) ** 2)
        return w.imag if mode == "sin" else w.real

    res = _check(lambda n: mpf(M - slope * n), mode, x, digits, reference,
                 odd)
    assert res.err_estimate <= mpf(10) ** -(digits + 10) * M


@pytest.mark.parametrize("family,mode", [
    ("recip", "sin"), ("recip", "cos"), ("logn", "sin"), ("logn", "cos"),
    ("log1p", "sin"), ("power", "cos"), ("power", "sin")])
def test_longest_heads_at_x_one_thousandth(family, mode):
    # about 19,500 terms at 50 digits: where the rotated phase drifts most
    res = _check_family(family, mode, Fraction(1, 1000), 50, mpf("-0.5"))
    assert res.terms_used > 18000


def test_zeta_fourier_far_left():
    # Gamma(201) ~ 1e375 scales the sums' tolerance to ~1e-396, so the head
    # runs at ~1400 bits; the claim is absolute, the value ~5.5e214
    x = mpf("0.3")
    res = zeta_fourier(-200, x, PrecisionConfig(digits=20))
    assert_claim(res, lambda: mp.zeta(-200, x), 20)


def test_x_as_fraction_str_or_mpf_gives_one_result():
    cfg = PrecisionConfig(digits=30)
    with mp.workdps(60):
        third = mpf(1) / 3
    results = [sum_trig_averaged(lambda n: mp.log(n) / n, "cos", x, cfg)
               for x in (Fraction(1, 3), "1/3", third)]
    assert results[0] == results[1] == results[2]
    eighth = [sum_trig_averaged(lambda n: mpf(1) / n, "sin", x, cfg)
              for x in (Fraction(3, 8), "0.375", mpf(3) / 8, 0.375)]
    assert all(r == eighth[0] for r in eighth)


def test_non_finite_coefficient_raises():
    # fixed point would read inf or nan as 0 and return a finite sum
    with pytest.raises(ValueError, match="not finite"):
        sum_trig_averaged(lambda n: mp.inf if n == 5 else mpf(1) / n, "sin",
                          mpf("0.3"), PrecisionConfig(digits=20))

"""The Euler-Maclaurin engine against mpmath's independent built-ins.

mpmath's zeta, stieltjes, loggamma and psi share no code with the engine.
Every draw is checked by conftest.assert_claim, for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

with the reference as precise as that rule takes (mp.zeta at large s and x
is good only in absolute terms, which its second stage settles),
over s in [-40, 40] (s != 1), x log-uniform in [1e-2, 1e5], derivative
order 0-3, Stieltjes index 0-12, polygamma order 1-12 and digits in
{20, 30, 50, 100}.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes.constants import em_gamma, laurent_oracle
from stieltjes.core import DomainError, PrecisionConfig
from stieltjes.gammafuncs import digamma, log_gamma, polygamma
from stieltjes.hurwitz import zeta_doubleprime0
from stieltjes.kernels import hurwitz_zeta_em

from conftest import assert_claim, zeta_ref

DIGITS = st.sampled_from([20, 30, 50, 100])
S = st.floats(-40, 40).filter(lambda s: s != 1)
X = st.floats(-2, 5).map(lambda e: 10 ** e)


@settings(max_examples=300)
@given(s=S, x=X, deriv=st.integers(0, 3), digits=DIGITS)
@example(s=-8.474345739399523e-221, x=10.0, deriv=0, digits=20)
def test_zeta_matches_mpmath(s, x, deriv, digits):
    res = hurwitz_zeta_em(s, x, deriv, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: zeta_ref(s, x, deriv), digits)


@settings(max_examples=60)
@given(j=st.integers(1, 30), sign=st.sampled_from([-1, 1]), x=X,
       deriv=st.integers(0, 3), digits=DIGITS)
def test_zeta_near_the_pole(j, sign, x, deriv, digits):
    s = 1 + sign * mpf(2) ** -j
    res = hurwitz_zeta_em(s, x, deriv, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: zeta_ref(s, x, deriv), digits)


@settings(max_examples=25)
@given(m=st.integers(0, 12), x=X, digits=DIGITS)
def test_stieltjes_matches_mpmath(m, x, digits):
    res = em_gamma(m, x, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: mp.stieltjes(m, x), digits)


@settings(max_examples=100)
@given(x=X, digits=DIGITS)
def test_log_gamma_and_digamma_match_mpmath(x, digits):
    cfg = PrecisionConfig(digits=digits)
    assert_claim(log_gamma(x, cfg), lambda: mp.loggamma(x), digits)
    assert_claim(digamma(x, cfg), lambda: mp.psi(0, x), digits)


@settings(max_examples=40)
@given(k=st.integers(1, 12), x=X, digits=DIGITS)
def test_polygamma_matches_mpmath(k, x, digits):
    assert_claim(polygamma(k, x, PrecisionConfig(digits=digits)),
           lambda: mp.psi(k, x), digits)


# Points where the Bernoulli loop used to stop at the first term that grew:
# for s > 1 with a derivative, P_r(A) passes near zero and the term at r
# dips below a later one; for s < 0 the first terms grow by design.
PINNED = [
    # compute zeta -s 37/32 -x 2.1051430560158115 --deriv 1 --digits 30
    # printed ...282378 and claimed 1e-30; the value ends ...282458
    (mpf(37) / 32, 2.1051430560158115, 1, 30),
    # zeta''(0, x): the r = 9 term dipped below the r = 11 one
    (0, 2.1672284340999495, 2, 20),
    # missed 1e-20 by 158x and 1e-50 by 2e7x with the early stop
    (-10.5, 0.3, 0, 20),
    (-10.5, 0.3, 0, 50),
    (-120.25, 1000, 2, 50),
    # next to the pole, where s - 1 must keep its working precision
    (1 + mpf(10) ** -9, mpf(1) / 3, 0, 30),
]


@pytest.mark.parametrize("s,x,deriv,digits", PINNED)
def test_pinned_points(s, x, deriv, digits):
    s, x = mpf(s), mpf(x)
    res = hurwitz_zeta_em(s, x, deriv, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: zeta_ref(s, x, deriv), digits)


def test_doubleprime0_default_route_pinned(cfg20):
    x = mpf(2.1672284340999495)
    assert_claim(zeta_doubleprime0(x, cfg=cfg20), lambda: mp.zeta(0, x, 2), 20)


@pytest.mark.parametrize("m,x", [(1, 0.04734601648266547),
                                 (5, 0.6506581961237868)])
def test_laurent_oracle_does_not_stop_on_a_dip(m, x, cfg30):
    # the turn test read |P_r(A)|, which dips; it stopped 12 digits short
    res = laurent_oracle(m, x, cfg30)
    assert_claim(res, lambda: mp.stieltjes(m, mpf(x)), 30)


def test_cost_does_not_grow_with_x(cfg30):
    near = hurwitz_zeta_em(0, 1, 1, cfg30)
    far = hurwitz_zeta_em(0, mpf(10) ** 5, 1, cfg30)
    assert far.terms_used == near.terms_used
    assert far.converged and near.converged


@pytest.mark.parametrize("digits", [20, 30, 50])
def test_continued_tail_cancellation_is_claimed(digits):
    # below s = 1 the tail's terms alternate; at this point they add up to
    # 1.6e5 times its value, and a claim without them was 136x, 14x and
    # 193x short of the actual error at 20, 30 and 50 digits
    res = hurwitz_zeta_em(mpf(-1) / 2, 3, 25, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: zeta_ref(mpf(-1) / 2, 3, 25), digits)


@pytest.mark.parametrize("exact,as_mpf", [
    (Fraction(1) + Fraction(1, 10 ** 40), False),
    (Fraction(1) - Fraction(1, 10 ** 40), False),
    (Fraction(1) + Fraction(1, 2 ** 200), True)])  # an mpf of 201 bits
def test_exact_s_next_to_the_pole_keeps_its_digits(exact, as_mpf, cfg20):
    # rounded to the working bits + 40, s - 1 = 1e-40 kept 37 bits, and
    # the engine claimed 1.4e10 while 4.6e28 off
    # the reference takes the s the engine got, exactly
    s = mpf(exact.numerator) / exact.denominator if as_mpf else exact
    assert_claim(hurwitz_zeta_em(s, 1000, 0, cfg20), lambda: zeta_ref(s, 1000),
                 20)


@pytest.mark.parametrize("s", [mpf("1e400"), Fraction(10) ** 400,
                               mpf("-1e400"), mp.inf, mp.nan])
def test_s_beyond_float_range_raises(s, cfg20):
    # the plan runs on float(s); at inf or nan it never returned
    with pytest.raises(DomainError):
        hurwitz_zeta_em(s, 1, 0, cfg20)

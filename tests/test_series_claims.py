"""The Bell and Srivastava-Choi routes' claims against mpmath's built-ins.

Both shift x up to their ``SHIFT_FLOOR`` and then sum their series
directly until a proven remainder bound meets the request.  Every draw is
checked for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

with the reference from mp.stieltjes or mp.zeta at 40 digits beyond the
request (a loose reference would fake overclaims).  Draws: Stieltjes index
0-6, s in (0, 40] at least 1e-6 from the pole, x log-uniform in
[1e-2, 1e3], 20, 30 and 50 digits.
"""

from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from stieltjes.combinatorics import bell_harmonic
from stieltjes.constants import _elementary_step, bell_series_gamma
from stieltjes.core import PrecisionConfig
from stieltjes.hurwitz import zeta_srivastava_choi

DIGITS = st.sampled_from([20, 30, 50])
X = st.floats(-2, 3).map(lambda e: mpf(10 ** e))
S = st.floats(0, 40, exclude_min=True).filter(lambda s: abs(s - 1) >= 1e-6)


def _check(res, reference, digits):
    with mp.workdps(digits + 40):
        ref = reference()
        actual = abs(res.value - ref)
        assert actual <= res.err_estimate, (
            f"actual {mp.nstr(actual, 3)} > claimed "
            f"{mp.nstr(res.err_estimate, 3)}")
        assert res.err_estimate <= mpf(10) ** -digits * max(1, abs(ref))
        assert res.converged


@settings(max_examples=12)
@given(m=st.integers(0, 6), x=X, digits=DIGITS)
def test_bell_claim(m, x, digits):
    res = bell_series_gamma(m, x, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.stieltjes(m, x), digits)


@settings(max_examples=12)
@given(s=S, x=X, digits=DIGITS)
def test_srivastava_choi_claim(s, x, digits):
    res = zeta_srivastava_choi(s, x, PrecisionConfig(digits=digits))
    _check(res, lambda: mp.zeta(s, x), digits)


def test_bell_weights_are_elementary_symmetric(cfg30):
    # Y_k(n) = k! e_k(1, 1/2, ..., 1/n), the nonnegative form the bound uses
    e = [mpf(1)] + [mpf(0)] * 6
    for n in range(1, 12):
        e = _elementary_step(e, n)
        for k in range(7):
            y = mp.factorial(k) * e[k]
            assert abs(y - bell_harmonic(k, n, cfg30)) <= (
                mpf(10) ** -25 * max(1, y))


def test_terms_do_not_grow_with_x(cfg20):
    # past the shift the terms fall like 1/x, so a larger x needs no more
    for route, p in ((bell_series_gamma, 0), (bell_series_gamma, 6),
                     (zeta_srivastava_choi, mpf(1) / 2),
                     (zeta_srivastava_choi, 3)):
        terms = [route(p, x, cfg20).terms_used for x in (64, 100, 1000)]
        assert terms == sorted(terms, reverse=True), (route, p, terms)


def test_a_budget_spent_on_the_shift_is_unconverged():
    # from x = 1 the shift to the floor alone takes more than 20 terms
    cfg = PrecisionConfig(digits=20, max_terms=20)
    for res in (bell_series_gamma(0, 1, cfg),
                zeta_srivastava_choi(2, 1, cfg)):
        assert res.terms_used == 20
        assert not res.converged


def test_a_budget_short_of_the_bound_is_unconverged():
    cfg = PrecisionConfig(digits=20, max_terms=3)
    res = bell_series_gamma(2, 100, cfg)
    assert res.terms_used == 3
    assert not res.converged
    with mp.workdps(60):
        assert abs(res.value - mp.stieltjes(2, 100)) <= res.err_estimate

"""Claims of the direct series on ``kernels.sum_majorized`` and of the log
kernel's raised precision, against mpmath references.

Each series result is checked by conftest.assert_claim, for

    actual <= err_estimate <= 10^-digits max(1, |ref|)

at 20, 50 and 100 digits.
The private series run at the working precision their public callers
set, ``cfg.workprec(40)``.  The log kernel 1/(1-u) + 1/log u, and the
Sondow integrand built on it, are checked at 1 - u = 2^-k for every k up
to the working bits, where the two terms cancel in k bits.
"""

import pytest
from mpmath import mp, mpf

from stieltjes import fourier
from stieltjes.constants import gamma1_prime, ramanujan_exp_sum
from stieltjes.core import PrecisionConfig
from stieltjes.gammafuncs import _log_kernel_bracket

from conftest import assert_claim

DIGITS = (20, 50, 100)


def _s1():
    # -sum_j zeta'(2j, 1)/4^j, each term below 1/16 of the one before
    J = int(mp.prec / 4) + 2
    return mp.fsum(-mp.zeta(2 * j, 1, 1) / 4 ** j for j in range(1, J))


def _euler_generalized(z):
    # sum z^(n-1) (1/n - log(1+1/n)), its rest below |z|^n / (1 - |z|)
    z = mpf(z)
    if z == 0:
        return 1 - mp.log(2)
    n = int((mp.prec + 8) / -mp.log(abs(z), 2)) + 1
    return mp.fsum(z ** (k - 1) * (mpf(1) / k - mp.log1p(mpf(1) / k))
                   for k in range(1, n + 1))


@pytest.mark.parametrize("digits", DIGITS)
def test_kolbig_sums_claims(digits):
    cfg = PrecisionConfig(digits=digits)
    with cfg.workprec(40):
        s1, s2 = fourier._kolbig_s1(cfg), fourier._kolbig_s2(cfg)
    assert_claim(s1, _s1, digits)
    assert_claim(s2, lambda: 2 * _s1(), digits)  # Kolbig: S2 = 2 S1


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (0, 1), (-9, 10)])
def test_sondow_power_series_claims(p, q, digits):
    z = mpf(p) / q  # at the ambient 400 bits, the same z for both sides
    cfg = PrecisionConfig(digits=digits)
    with cfg.workprec(40):
        res = fourier._sondow_power_series(z, cfg)
    assert_claim(res, lambda: +mp.euler if z == 1 else _euler_generalized(z),
           digits)


@pytest.mark.parametrize("digits", DIGITS)
def test_ramanujan_exp_sum_claim(digits):
    res = ramanujan_exp_sum(PrecisionConfig(digits=digits))
    assert_claim(res, lambda: (mp.log(4 / mp.pi) / 4 + mp.loggamma(mpf(3) / 4)
                         - mp.pi / 12), digits)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("x", [1, "e", 4, 10])
def test_gamma1_prime_claim(x, digits):
    x = +mp.e if x == "e" else mpf(x)
    res = gamma1_prime(x, PrecisionConfig(digits=digits))
    assert_claim(res, lambda: mp.zeta(2, x, 1) + mp.zeta(2, x), digits)


def _captured_sondow_integrand(monkeypatch, z, cfg):
    """The integrand that sondow_gamma(z, route="integral") hands to the
    quadrature."""
    seen = []
    monkeypatch.setattr(fourier, "integrate_adaptive",
                        lambda f, a, b, cfg: seen.append(f))
    fourier.sondow_gamma(z, cfg, route="integral")
    return seen[0]


@pytest.mark.parametrize("digits", [20, 50])
def test_log_kernel_cancellation(monkeypatch, digits):
    cfg = PrecisionConfig(digits=digits)
    z = mpf(1) / 2
    f = _captured_sondow_integrand(monkeypatch, z, cfg)
    with cfg.workprec(40):
        prec = mp.prec
        for k in range(1, prec):
            u = 1 - mpf(2) ** -k
            kernel, integrand = _log_kernel_bracket(u), f(u)
            with mp.workprec(2 * prec + 32):
                ref_kernel = 1 / (1 - u) + 1 / mp.log(u)
                ref_integrand = ((1 - u + mp.log(u))
                                 / ((1 - z * u) * mp.log(u)))
                ulp = mpf(2) ** -prec
                assert abs(kernel - ref_kernel) <= 4 * ulp * abs(ref_kernel), k
                assert (abs(integrand - ref_integrand)
                        <= 8 * ulp * abs(ref_integrand)), k

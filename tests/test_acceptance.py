"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from stieltjes.core import PrecisionConfig
from stieltjes import constants, fourier, gammafuncs, hurwitz, suites
from stieltjes.kernels import sum_trig_averaged

from conftest import sides
from reference_values import GAMMA

CFG20 = PrecisionConfig(digits=20)
CFG30 = PrecisionConfig(digits=30)
CFG40 = PrecisionConfig(digits=40)


def _line(num, ok, desc):
    print(f"criterion-{num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_euler_constant_routes():
    with mp.workprec(400):
        t0 = time.monotonic()
        oracle = constants.laurent_oracle(0, 1, CFG40).value
        t_oracle = time.monotonic() - t0
        results = {}
        for method, tol in (("hasse", mpf(10) ** -12),
                            ("bell", mpf(10) ** -12),
                            ("briggs", mpf(10) ** -4)):
            t0 = time.monotonic()
            v = constants.stieltjes_gamma(0, 1, method, CFG30).value
            dt = time.monotonic() - t0
            results[method] = (abs(v - oracle) <= tol, dt)
        ok = all(r[0] and r[1] < 10 and t_oracle < 10
                 for r in results.values())
        detail = ", ".join(f"{m}: {'ok' if r[0] else 'off'} {r[1]:.1f}s"
                           for m, r in results.items())
    _line(1, ok, f"gamma via hasse/bell/briggs vs 40-digit oracle ({detail})")


def test_criterion_02_gamma1_half_closed_form():
    with mp.workprec(400):
        g1_half = constants.stieltjes_gamma(1, mpf(1) / 2, "hasse", CFG30).value
        g1 = constants.stieltjes_gamma(1, 1, "hasse", CFG30).value
        closed = g1 - mp.log(2) ** 2 - 2 * mpf(GAMMA) * mp.log(2)
        ok = abs(g1_half - closed) <= mpf(10) ** -10
    _line(2, ok, "gamma_1(1/2) closed form from hasse-route gamma_1")


def test_criterion_03_rational_closed_forms():
    with mp.workprec(400):
        ok = True
        for p, q in ((1, 4), (1, 5)):
            closed = constants.gamma1_rational(Fraction(p, q), CFG30)
            series = constants.stieltjes_gamma(1, mpf(p) / q, "hasse",
                                               CFG30).value
            ok = ok and abs(closed - series) <= mpf(10) ** -8
    _line(3, ok, "gamma_1(1/4), gamma_1(1/5) closed forms vs series route")


def test_criterion_04_reflection_formula():
    with mp.workprec(400):
        ok = True
        for p, q in ((1, 3), (1, 4), (2, 5)):
            closed = constants.adamchik_reflection(Fraction(p, q), CFG30)
            x = mpf(p) / q
            diff = (constants.em_gamma(1, 1 - x, CFG30).value
                    - constants.em_gamma(1, x, CFG30).value)
            ok = ok and abs(closed - diff) <= mpf(10) ** -8
    _line(4, ok, "reflection closed form at 1/3, 1/4, 2/5 (tol 1e-8)")


def test_criterion_05_hurwitz_trigonometric_expansion():
    with mp.workprec(400):
        ok = True
        for s, x in ((mpf(-1) / 2, mpf(3) / 10), (mpf(-1), mpf(7) / 10),
                     (mpf(1) / 2, mpf(1) / 4)):
            a = hurwitz.zeta_fourier(s, x, CFG20).value
            b = hurwitz.zeta_hasse(s, x, 0, CFG20).value
            ok = ok and abs(a - b) <= mpf(10) ** -6
    _line(5, ok, "trigonometric vs binomial zeta at three (s,x) (tol 1e-6)")


def test_criterion_06_lerch_identity_grid():
    with mp.workprec(400):
        ok = True
        for k in range(1, 10):
            x = mpf(k) / 10
            lhs = hurwitz.zeta_prime0(x, "hasse", CFG30).value + mp.log(2 * mp.pi) / 2
            rhs = gammafuncs.log_gamma(x, CFG30).value
            ok = ok and abs(lhs - rhs) <= mpf(10) ** -10
    _line(6, ok, "zeta'(0,x) + log(2 pi)/2 = log Gamma(x) on 9-point grid")


def test_criterion_07_kummer_series():
    with mp.workprec(400):
        ok = True
        for x in (mpf(1) / 4, mpf(1) / 3, mpf(2) / 3):
            kummer = fourier.kummer_log_gamma(x, CFG20).value
            lg = gammafuncs.log_gamma(x, CFG20).value
            ok = ok and abs(kummer - lg) <= mpf(10) ** -5
    _line(7, ok, "log Gamma sine series at 1/4, 1/3, 2/3 (tol 1e-5)")


def test_criterion_08_odd_sine_series_and_wallis():
    with mp.workprec(400):
        ok = True
        series, closed = sides("series-316", "odd-sine-log-series")
        for x in (mpf(1) / 4, mpf(1) / 3, mpf(3) / 4):
            diff = series(x, CFG20) - closed(x, CFG20)
            ok = ok and abs(diff) <= mpf(10) ** -5
        w = fourier.wallis_alternating(CFG20)
        ok = ok and abs(w.value - mp.log(mp.pi / 2)) <= mpf(10) ** -10
    _line(8, ok, "odd sine series (1e-5) and accelerated log(pi/2) (1e-10)")


def test_criterion_09_deninger_and_landau():
    with mp.workprec(400):
        ok = True
        for x in (mpf(1) / 4, mpf(1) / 3, mpf("0.4")):
            diff = (fourier.deninger_f(x, CFG20).value
                    - fourier.deninger_closed(x, CFG20))
            ok = ok and abs(diff) <= mpf(10) ** -4
        for x in (mpf(1) / 4, mpf(1) / 6, mpf(1) / 8):
            lhs = fourier.deninger_closed(x + mpf(1) / 2, CFG20)
            rhs = fourier.landau_f_functional(x, CFG20)
            ok = ok and abs(lhs - rhs) <= mpf(10) ** -4
    _line(9, ok, "log-cosine closed form and its functional equation (1e-4)")


def test_criterion_10_gamma1_trigonometric_series():
    with mp.workprec(400):
        ok = True
        for x in (mpf(1) / 4, mpf(1) / 3, mpf(1) / 2):
            a = fourier.gamma1_fourier(x, CFG20).value
            b = constants.stieltjes_gamma(1, x, "hasse", CFG20).value
            ok = ok and abs(a - b) <= mpf(10) ** -4
    _line(10, ok, "gamma_1 trigonometric series at 1/4, 1/3, 1/2 (1e-4)")


def test_criterion_11_kolbig_triple_check():
    with mp.workprec(400):
        S1, S2, quad = (r.value for r in fourier.kolbig_check(CFG20))
        g = mp.euler + mp.log(2 * mp.pi)
        ok = (abs(2 * S1 - S2) <= mpf(10) ** -10
              and abs(quad + (2 / mp.pi) * (g + 2 * S1)) <= mpf(10) ** -8
              and abs(quad + (2 / mp.pi) * (g + S2)) <= mpf(10) ** -8)
    _line(11, ok, "series equivalence 1e-10, quadrature agreement 1e-8")


def test_criterion_12_ramanujan_sum():
    with mp.workprec(400):
        reports, _ = suites.run_suites(["ramanujan"], CFG30)
        printed = {r.identity: r for r in reports}
        g34 = printed["ramanujan-closed-form"]
        g14 = printed["ramanujan-closed-form-as-printed"]
        S = constants.ramanujan_exp_sum(CFG30)
        ok = (abs(S - mpf("0.00187")) < mpf(10) ** -5
              and g34.passed and g34.residual <= mpf(10) ** -10
              and not g14.passed
              and "paper-discrepancy" in g14.meta)
    _line(12, ok, "exp sum matches Gamma(3/4) variant; printed variant "
                  "recorded failing with annotation")


def test_criterion_13_generalized_euler_constant():
    with mp.workprec(400):
        re1 = fourier.sondow_gamma(mpf(1), CFG30).value
        re2 = fourier.sondow_gamma(mpf(-1), CFG30).value
        r_s = fourier.sondow_gamma(mpf(1) / 2, CFG30, route="series").value
        r_i = fourier.sondow_gamma(mpf(1) / 2, CFG30, route="integral").value
        s = fourier.sondow_gamma(Fraction(1, 2), CFG30, route="series").value
        q = fourier.sondow_gamma(Fraction(1, 2), CFG30, route="2q").value
        ok = (abs(re1 - mpf(GAMMA)) <= mpf(10) ** -10
              and abs(re2 - mp.log(4 / mp.pi)) <= mpf(10) ** -10
              and abs(r_s - r_i) <= mpf(10) ** -8
              and abs(s.real - q.real) <= mpf(10) ** -6
              and abs(s.imag - q.imag) <= mpf(10) ** -6)
    _line(13, ok, "gamma(1), gamma(-1), series/integral/2q route agreement")


def test_criterion_14_bell_polynomial_series():
    with mp.workprec(400):
        ok = True
        for m in (0, 1, 2):
            for x in (mpf(1), mpf(3) / 2):
                a = constants.bell_series_gamma(m, x, CFG30).value
                b = constants.laurent_oracle(m, x, CFG30).value
                ok = ok and abs(a - b) <= mpf(10) ** -8
    _line(14, ok, "Bell-weighted series m in {0,1,2}, x in {1, 1.5} (1e-8)")


def test_criterion_15_derivative_contracts():
    with mp.workprec(400):
        h = mpf(10) ** -6
        x = mpf(5)
        fd = (constants.stieltjes_gamma(1, x + h, "hasse", CFG40).value
              - constants.stieltjes_gamma(1, x - h, "hasse", CFG40).value) / (2 * h)
        ok = abs(fd - constants.gamma1_prime(x, CFG40)) <= mpf(10) ** -6
        for s, xx in ((mpf(2), mpf(1)), (mpf(1) / 2, mpf(7) / 10),
                      (mpf(-1) / 2, mpf(3) / 10)):
            dfd = (hurwitz.zeta_hasse(s, xx + h, 0, CFG40).value
                   - hurwitz.zeta_hasse(s, xx - h, 0, CFG40).value) / (2 * h)
            rhs = -s * hurwitz.zeta_hasse(s + 1, xx, 0, CFG40).value
            ok = ok and abs(dfd - rhs) <= mpf(10) ** -9  # O(h^2) headroom
        for xx in (mp.e, mpf(4), mpf(10)):
            ok = ok and constants.gamma1_prime(xx, CFG20) < 0
    _line(15, ok, "gamma_1' finite differences, d/dx zeta relation, sign")


def test_criterion_16_functional_equations():
    with mp.workprec(400):
        ok = True
        for k in range(1, 11):
            x = mpf(k) / 4
            d = (gammafuncs.digamma(1 + x, CFG30).value
                 - gammafuncs.digamma(x, CFG30).value)
            ok = ok and abs(d - 1 / x) <= mpf(10) ** -12
        for x in (mpf(1) / 2, mpf(1), mpf(2), mpf(7) / 2):
            step = (constants.em_gamma(0, x, CFG30).value
                    - constants.em_gamma(0, x + 1, CFG30).value)
            ok = ok and abs(step - 1 / x) <= mpf(10) ** -12
    _line(16, ok, "digamma recurrence and gamma_0 shift on grids (1e-12)")

"""Named validation suites: every identity check, with stable ids.

Library evaluators compute one side of an identity each: a
``SeriesResult`` where a kernel computed it, a bare value for a closed form.
``CATALOGUE`` alone says which two sides meet, under which identity and
meta.  Every side runs under the request ``cfg``, and
:meth:`~stieltjes.core.IdentityReport.build` judges each pair by it.

A suite is a list of rows of one kind: identity, sides ``(lhs, rhs)``, exact
points (ints, Fractions, dyadic floats, ``mp.e``) and meta; identity and
meta are format strings over the point, and the report's x is its last
non-integer entry.  Each side is called as
``f(*point, cfg)``.  A side calls a function the benchmark traces as
``module.name`` inside a lambda, looked up at each call.

A suite is a function instead only when its reports share one computation
(kolbig, ramanujan, series-325-family, sondow), when its verdict is not a
residual (gamma1-prime, a sign check), or when its meta carries a check
made at run time (coffey-integral, the sign of the integrand).

Reports whose meta carries the "paper-discrepancy" marker are recorded but
do not count toward the suite exit status (they document a known defect in
the source material).
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from typing import Callable, Dict, List, NamedTuple

from mpmath import mp, mpf

from .core import IdentityReport, PrecisionConfig, as_real
from . import constants, fourier, gammafuncs, hurwitz
from .kernels import sum_trig_averaged

EXPECTED_FAILURE_MARK = "paper-discrepancy"


class Row(NamedTuple):
    identity: str
    check: tuple  # (lhs, rhs), each called as f(*point, cfg)
    points: tuple
    meta: str = ""


def _run_rows(rows: List[Row]):
    def run(cfg):
        out = []
        for row in rows:
            lhs, rhs = row.check
            for pt in row.points:
                pt = pt if isinstance(pt, tuple) else (pt,)
                reals = [v for v in pt if not isinstance(v, int)]
                out.append(IdentityReport.build(
                    row.identity.format(*pt), lhs(*pt, cfg), rhs(*pt, cfg),
                    cfg.tol(), as_real(reals[-1]) if reals else None,
                    row.meta.format(*pt)))
        return out
    return run


def _gamma1_prime_checks(cfg) -> List[IdentityReport]:
    # sign contract: gamma_1'(x) < 0 for x >= e
    out = []
    for x in (mp.e, mpf(4), mpf(10)):
        v = constants.gamma1_prime(x, cfg).value
        out.append(IdentityReport(
            "gamma1-derivative-negative", v, mpf(0),
            mpf(0) if v < 0 else abs(v), mpf(0), bool(v < 0), x=x,
            meta="pass iff value < 0"))
    return out


def _coffey_integral(cfg) -> List[IdentityReport]:
    # the integral against sum_k C(n,k)(-1)^k log(k+x); the meta reports
    # the sign of the integrand, checked at nine points
    out = []
    for n, x in ((1, 1), (2, 1), (1, 2)):
        x = as_real(x)
        rhs = mp.fsum((-1) ** k * math.comb(n, k)
                      * mp.log(k + x) for k in range(n + 1))
        f = constants.coffey_integrand(n, x)
        negative = all(f(mpf(u) / 10) < 0 for u in range(1, 10))
        out.append(IdentityReport.build(
            f"coffey-integral-n{n}",
            constants.coffey_difference_integral(n, x, cfg), rhs, cfg.tol(),
            x=x, meta="integrand negative on (0,1)" if negative
            else "WARNING: integrand sign check failed"))
    return out


def _kolbig_three_way(cfg) -> List[IdentityReport]:
    # one quadrature I and the sums S1, S2: 2 S1 = S2 and
    # I = -(2/pi)(g + 2 S1) = -(2/pi)(g + S2), g = gamma + log 2 pi
    S1, S2, quad = (r.value for r in fourier.kolbig_check(cfg))
    g2pi = mp.euler + mp.log(2 * mp.pi)
    tol = cfg.tol()
    return [
        IdentityReport.build("eq-3.30-kolbig-equivalence", 2 * S1, S2, tol),
        IdentityReport.build("eq-3.30-kolbig-quadrature", quad,
                             -(2 / mp.pi) * (g2pi + 2 * S1), tol),
        IdentityReport.build("eq-3.30-kolbig-integrated", quad,
                             -(2 / mp.pi) * g2pi - (2 / mp.pi) * S2, tol,
                             meta="sign of the integral term corrected from "
                                  "the printed form")]


def _ramanujan(cfg) -> List[IdentityReport]:
    # one exponential sum S = sum 1/(n (e^(2 pi n) - 1)) for all three: the
    # gamma_1(3/4) - gamma_1(1/4) display against the reflection closed
    # form, and S against its Gamma(3/4) closed form and the Gamma(1/4)
    # variant as printed in the source material (recorded as failing)
    S = constants.ramanujan_exp_sum(cfg).value
    lg14 = gammafuncs.log_gamma(mpf(1) / 4, cfg).value
    lg34 = gammafuncs.log_gamma(mpf(3) / 4, cfg).value
    coffey = mp.pi * (mp.pi / 3 + mp.euler + 4 * S)
    reflection = (mp.pi * (mp.log(8 * mp.pi) + mp.euler)
                  - 2 * mp.pi * (lg14 - lg34))
    closed34, closed14 = (mp.log(4 / mp.pi) / 4 + lg - mp.pi / 12
                          for lg in (lg34, lg14))
    tol = cfg.tol()
    return [
        IdentityReport.build("ramanujan-coffey-display", coffey, reflection,
                             tol, x=mpf(1) / 4),
        IdentityReport.build("ramanujan-closed-form", S, closed34, tol,
                             meta="Gamma(3/4) variant"),
        IdentityReport.build(
            "ramanujan-closed-form-as-printed", S, closed14, tol,
            meta=f"{EXPECTED_FAILURE_MARK}: printed Gamma(1/4) variant; "
                 "Gamma(3/4) matches the summed value")]


def _sondow(cfg) -> List[IdentityReport]:
    def gamma(z, route="series"):
        return fourier.sondow_gamma(z, cfg, route=route).value

    tol = cfg.tol()
    series, closed = gamma(F(1, 2)), gamma(F(1, 2), "2q")
    return [
        IdentityReport.build("eq-3.31-sondow-z1", gamma(mpf(1)), mp.euler,
                             tol),
        IdentityReport.build("eq-3.31-sondow-zm1", gamma(mpf(-1)),
                             mp.log(4 / mp.pi), tol),
        IdentityReport.build("eq-3.31-sondow-routes", gamma(mpf(1) / 2),
                             gamma(mpf(1) / 2, "integral"), tol,
                             meta="series vs integral at z=1/2"),
        IdentityReport.build("sondow-2q-re", series.real, closed.real, tol,
                             meta="omega=e^(i pi/2)"),
        IdentityReport.build("sondow-2q-im", series.imag, closed.imag, tol,
                             meta="omega=e^(i pi/2)")]


# sides that several rows share, the traced functions looked up at each call
_zeta = lambda s, x, cfg: hurwitz.zeta(s, x, cfg=cfg)
_hasse_gamma = lambda m, x, cfg: constants.hasse_gamma(m, x, cfg)
_oracle_gamma = lambda m, x, cfg: constants.laurent_oracle(m, x, cfg)
_log_gamma = lambda x, cfg: gammafuncs.log_gamma(x, cfg)
_psi = lambda x, cfg: gammafuncs.digamma(x, cfg).value


def _gamma(m, x, cfg):
    return constants.stieltjes_gamma(m, x, cfg=cfg).value


def _gamma_diff(m, a, b, cfg):
    return _gamma(m, a, cfg) - _gamma(m, b, cfg)


def _odd_sine_closed(x, cfg):
    # -(psi(x) + gamma + log 2 pi) sin(pi x) - (pi/2) cos(pi x)
    x = as_real(x)
    sx, cx = mp.sin(mp.pi * x), mp.cos(mp.pi * x)
    return -(_psi(x, cfg) * sx + mp.pi / 2 * cx
             + (mp.euler + mp.log(2 * mp.pi)) * sx)


def _trig_sum(coeff, mode, odd=False):
    # sum coeff(n) trig(2 pi n x), or trig((2n+1) pi x) if odd
    return lambda x, cfg: sum_trig_averaged(coeff, mode, as_real(x), cfg,
                                            odd_multiples=odd)


def _log_ratio(n):
    return mp.log(1 + mpf(1) / n)


def _series_325_family(cfg) -> List[IdentityReport]:
    # the sums of log(1+1/n) against their closed forms: 3.25, 3.28 and
    # 3.29 at x = 1/3 share one gamma_1 difference and one psi; 3.27 at
    # x = 1/4 is a sum over log Gamma(j/4)
    third, quarter = F(1, 3), F(1, 4)
    c325, c328, c329 = fourier.series_325_family(third, cfg)
    c327 = fourier.series_327_rational(quarter, cfg)
    return [IdentityReport.build(identity,
                                 _trig_sum(_log_ratio, mode, odd)(x, cfg),
                                 closed, cfg.tol(), as_real(x))
            for identity, mode, odd, x, closed in (
                ("odd-cosine-stieltjes", "cos", True, third, c325),
                ("odd-cosine-rational", "cos", True, quarter, c327),
                ("cosine-stieltjes", "cos", False, third, c328),
                ("sine-stieltjes", "sin", False, third, c329))]


_SHIFT = (lambda m, x, cfg: _gamma_diff(m, as_real(x), as_real(x) + 1, cfg),
          lambda m, x, cfg: mp.log(as_real(x)) ** m / as_real(x))

CATALOGUE: Dict[str, object] = {
    "recurrence": [
        Row("eq-2.8-recurrence",
            (lambda x, cfg: _psi(1 + as_real(x), cfg) - _psi(as_real(x), cfg),
             lambda x, cfg: 1 / as_real(x)),
            (F(3, 10), F(1), F(5, 2)))],
    "shift": [
        Row("eq-2.9-shift", _SHIFT, ((0, F(2)), (0, F(1, 2)))),
        Row("shift-general", _SHIFT, ((1, F(1)), (1, F(1, 2))),
            "m>=1 generalization (derived, not displayed)")],
    "gamma0-digamma": [
        Row("eq-2.10-gamma0-digamma",
            (lambda x, cfg: _hasse_gamma(0, x, cfg),
             lambda x, cfg: -_psi(x, cfg)),
            (F(3, 10), F(1), F(7, 4)))],
    "digamma-integral": [
        Row("digamma-log-integral",
            (gammafuncs.digamma_log_integral,
             lambda x, cfg: _psi(x, cfg) - mp.log(as_real(x))),
            (F(1), F(2), mp.e), "integrand negative on (0,1)")],
    "coffey-integral": _coffey_integral,
    "digamma-series": [
        Row("eq-2.11-digamma-series",
            (lambda x, cfg: constants.digamma_hasse_series(x, cfg),
             lambda x, cfg: gammafuncs.digamma(x, cfg)),
            (F(1), F(2), F(1, 2)), "x={0}")],
    "gamma1-prime": _gamma1_prime_checks,
    "elementary-fourier": [
        Row("eq-3.8-sawtooth",
            (_trig_sum(lambda n: mpf(1) / n, "sin"),
             lambda x, cfg: mp.pi * (mpf(1) / 2 - as_real(x))),
            (F(1, 4), F(3, 10))),
        Row("eq-3.9-log-sine",
            (_trig_sum(lambda n: mpf(1) / n, "cos"),
             lambda x, cfg: -mp.log(2 * mp.sin(mp.pi * as_real(x)))),
            (F(1, 4), F(3, 10)))],
    "hurwitz-fourier": [
        Row("eq-3.10-hurwitz-fourier",
            (lambda s, x, cfg: hurwitz.zeta_fourier(s, x, cfg), _zeta),
            ((-0.5, F(3, 10)), (-1.0, F(7, 10)), (0.5, F(1, 4))), "s={0}")],
    "lerch-identity": [
        Row("eq-3.14-lerch-identity",
            (lambda x, cfg: (hurwitz.zeta_prime0(x, "hasse", cfg).value
                             + mp.log(2 * mp.pi) / 2),
             _log_gamma),
            tuple(F(k, 10) for k in range(1, 10)))],
    "kummer": [
        Row("kummer-log-gamma",
            (lambda x, cfg: fourier.kummer_log_gamma(x, cfg), _log_gamma),
            (F(1, 4), F(1, 3), F(2, 3)))],
    "series-316": [
        Row("odd-sine-log-series",
            (lambda x, cfg: fourier.series_316(x, cfg), _odd_sine_closed),
            (F(1, 4), F(1, 2), F(3, 4)))],
    "wallis": [
        Row("eq-3.17-wallis",
            (lambda cfg: fourier.wallis_alternating(cfg),
             lambda cfg: mp.log(mp.pi / 2)),
            ((),))],
    "deninger": [
        Row("log-cosine-closed-form",
            (lambda x, cfg: fourier.deninger_f(x, cfg),
             fourier.deninger_closed),
            (F(1, 2), F(1, 4), F(1, 3)))],
    "landau-f": [
        Row("log-cosine-functional-eq",
            (lambda x, cfg: fourier.deninger_closed(as_real(x) + mpf(1) / 2,
                                                    cfg),
             lambda x, cfg: fourier.landau_f_functional(x, cfg)),
            (F(1, 4), F(1, 6), F(1, 8)))],
    "gamma1-fourier": [
        Row("eq-3.23-gamma1-fourier",
            (lambda x, cfg: fourier.gamma1_fourier(x, cfg),
             lambda x, cfg: _gamma(1, x, cfg)),
            (F(1, 4), F(1, 3), F(1, 2)))],
    "series-325-family": _series_325_family,
    "kolbig": _kolbig_three_way,
    "gamma1-rational": [
        Row("gamma1-rational-closed-form",
            (constants.gamma1_rational, lambda r, cfg: _gamma(1, r, cfg)),
            (F(1, 2), F(1, 4), F(1, 5)), "{0}")],
    "adamchik": [
        Row("eq-3.36-adamchik",
            (lambda r, cfg: _gamma_diff(1, 1 - as_real(r), as_real(r), cfg),
             constants.adamchik_reflection),
            (F(1, 3), F(1, 4), F(2, 5)), "{0}")],
    "landau-gamma1": [
        Row("landau-gamma1-functional",
            (lambda x, cfg: _gamma_diff(1, as_real(x) + mpf(1) / 2,
                                        mpf(1) / 2 - as_real(x), cfg),
             constants.landau_gamma1_functional),
            (F(1, 6), F(1, 5)))],
    "ramanujan": _ramanujan,
    "sondow": _sondow,
    "poisson": [
        Row("eq-4.1-poisson",
            (lambda s, x, cfg: hurwitz.poisson_zeta(s, x, cfg), _zeta),
            ((2.0, F(1)), (3.0, F(1, 2))), "s={0}")],
    "briggs": [
        Row("eq-4.2-briggs",
            (lambda m, x, cfg: constants.briggs_gamma(m, x, cfg),
             _oracle_gamma),
            ((0, F(1)), (0, F(2)), (1, F(1))), "m={0}")],
    "bourguet": [
        Row("eq-4.4-bourguet",
            (lambda x, cfg: gammafuncs.bourguet_log_gamma(x, cfg), _log_gamma),
            (F(1), F(5, 2), F(10)))],
    "srivastava-choi": [
        Row("eq-5.1-srivastava-choi",
            (lambda s, x, cfg: hurwitz.zeta_srivastava_choi(s, x, cfg), _zeta),
            ((2.0, F(1)), (0.5, F(2)), (3.0, F(3, 2))), "s={0}")],
    "bell-series": [
        Row("eq-5.2-bell-series",
            (lambda m, x, cfg: constants.bell_series_gamma(m, x, cfg),
             _oracle_gamma),
            ((0, F(1)), (1, F(1)), (2, F(1)), (2, F(3, 2))), "m={0}")],
    "route-agreement": [
        Row("stieltjes-route-agreement", (_hasse_gamma, _oracle_gamma),
            ((0, F(1)), (1, F(1, 2)), (2, F(3, 2))), "m={0} hasse vs oracle")],
}

SUITES: Dict[str, Callable[[PrecisionConfig], List[IdentityReport]]] = {
    sid: spec if callable(spec) else _run_rows(spec)
    for sid, spec in CATALOGUE.items()}


def run_suites(names, cfg: PrecisionConfig):
    """Run the named suites; returns (reports, all_passed).

    Expected-failure reports (meta contains the paper-discrepancy marker) do
    not affect the pass verdict.
    """
    reports: List[IdentityReport] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        with cfg.workprec(40):  # suite-level arithmetic at working precision
            reports.extend(SUITES[name](cfg))
    return reports, all(r.passed or EXPECTED_FAILURE_MARK in r.meta
                        for r in reports)

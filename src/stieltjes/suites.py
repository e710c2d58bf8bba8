"""Named validation suites: every identity check, with stable ids.

``CATALOGUE`` maps each suite id to its rows, or to a function for the four
checks that do not fit a row.  A row gives the report identity, the
evaluator(s), the exact points, a pair's tolerance 10**-tol and the meta;
identity and meta are format strings over the point.  Points hold exact
values (ints, Fractions, dyadic floats, ``mp.e``, option strings), which
every evaluator converts at its own working precision.  A row's check
is either

* a pair ``(lhs, rhs)``, each called as ``f(*point, cfg)``; the report's x
  is the point's last non-integer entry; or
* an identity check of the package, called as ``f(*point, cfg)`` at its
  own tolerance, returning a report or a list of them; the row's identity
  (if not None) and meta (if not empty) win.

Reports whose meta carries the "paper-discrepancy" marker are recorded but
do not count toward the suite exit status (they document a known defect in
the source material).
"""

from __future__ import annotations

from fractions import Fraction as F
from typing import Callable, Dict, List, NamedTuple, Optional

from mpmath import mp, mpf

from .core import IdentityReport, PrecisionConfig, as_real
from . import constants, fourier, gammafuncs, hurwitz
from .kernels import sum_trig_averaged

EXPECTED_FAILURE_MARK = "paper-discrepancy"


class Row(NamedTuple):
    identity: Optional[str]
    check: object        # (lhs, rhs) pair or a report-returning check
    points: tuple
    tol: Optional[int] = None  # pairs only: checks carry their own
    meta: str = ""


def _run_rows(rows: List[Row]):
    def run(cfg):
        out = []
        for row in rows:
            for pt in row.points:
                pt = pt if isinstance(pt, tuple) else (pt,)
                meta = row.meta.format(*pt)
                if isinstance(row.check, tuple):
                    lhs, rhs = row.check
                    reals = [v for v in pt if not isinstance(v, int)]
                    out.append(IdentityReport.build(
                        row.identity.format(*pt), lhs(*pt, cfg), rhs(*pt, cfg),
                        mpf(10) ** -row.tol,
                        x=as_real(reals[-1]) if reals else None, meta=meta))
                    continue
                res = row.check(*pt, cfg)
                for rep in res if isinstance(res, list) else [res]:
                    if row.identity is not None:
                        rep.identity = row.identity.format(*pt)
                    rep.meta = meta or rep.meta
                    out.append(rep)
        return out
    return run


def _gamma1_prime_checks(cfg) -> List[IdentityReport]:
    # sign contract: gamma_1'(x) < 0 for x >= e
    out = []
    for x in (mp.e, mpf(4), mpf(10)):
        v = constants.gamma1_prime(x, cfg)
        rep = IdentityReport(identity="gamma1-derivative-negative",
                             lhs=v, rhs=mpf(0),
                             residual=mpf(0) if v < 0 else abs(v),
                             tolerance=mpf(0), passed=bool(v < 0),
                             x=x, meta="pass iff value < 0")
        out.append(rep)
    return out


def _elementary_fourier(cfg) -> List[IdentityReport]:
    out = []
    for x in (mpf(1) / 4, mpf(3) / 10):
        s = sum_trig_averaged(lambda n: mpf(1) / n, "sin", x, cfg)
        out.append(IdentityReport.build("eq-3.8-sawtooth", s.value,
                                        mp.pi * (mpf(1) / 2 - x),
                                        mpf(10) ** -8, x=x))
        c = sum_trig_averaged(lambda n: mpf(1) / n, "cos", x, cfg)
        out.append(IdentityReport.build("eq-3.9-log-sine", c.value,
                                        -mp.log(2 * mp.sin(mp.pi * x)),
                                        mpf(10) ** -8, x=x))
    return out


def _kolbig(cfg) -> List[IdentityReport]:
    reps = fourier.kolbig_check(cfg)
    reps[0].identity = "eq-3.30-kolbig-equivalence"
    reps[1].identity = "eq-3.30-kolbig-quadrature"
    reps[2].identity = "eq-3.30-kolbig-integrated"
    return reps


def _sondow(cfg) -> List[IdentityReport]:
    def gamma(z, route="series"):
        return fourier.sondow_gamma(z, cfg, route=route).value

    out = [IdentityReport.build("eq-3.31-sondow-z1", gamma(mpf(1)), mp.euler,
                                mpf(10) ** -10),
           IdentityReport.build("eq-3.31-sondow-zm1", gamma(mpf(-1)),
                                mp.log(4 / mp.pi), mpf(10) ** -10),
           IdentityReport.build("eq-3.31-sondow-routes", gamma(mpf(1) / 2),
                                gamma(mpf(1) / 2, "integral"), mpf(10) ** -8,
                                meta="series vs integral at z=1/2")]
    series, closed = gamma(F(1, 2)), gamma(F(1, 2), "2q")
    out.append(IdentityReport.build("sondow-2q-re", series.real, closed.real,
                                    mpf(10) ** -6, meta="omega=e^(i pi/2)"))
    out.append(IdentityReport.build("sondow-2q-im", series.imag, closed.imag,
                                    mpf(10) ** -6, meta="omega=e^(i pi/2)"))
    return out


def _late(module, name):
    """module.name, looked up at each call so that rebinding the attribute
    (as perfbench/tracing.py does) also reaches the table."""
    return lambda *args, **kw: getattr(module, name)(*args, **kw)


def _psi_step(x, cfg):
    x = as_real(x)
    return (gammafuncs.digamma(1 + x, cfg).value
            - gammafuncs.digamma(x, cfg).value)


def _value(module, name):
    """module.name(*args).value, the function looked up at each call."""
    return lambda *args: getattr(module, name)(*args).value


_hasse_gamma = _value(constants, "hasse_gamma")
_oracle_gamma = _value(constants, "laurent_oracle")


def _gamma(m, x, cfg):
    return constants.stieltjes_gamma(m, x, cfg=cfg).value


def _zeta(s, x, cfg):
    return hurwitz.zeta(s, x, cfg=cfg).value


def _family(which):
    return lambda x, cfg: fourier.series_325_family(x, which, cfg)


CATALOGUE: Dict[str, object] = {
    "recurrence": [
        Row("eq-2.8-recurrence", (_psi_step, lambda x, cfg: 1 / as_real(x)),
            (F(3, 10), F(1), F(5, 2)), 12)],
    "shift": [
        Row("eq-2.9-shift", _late(constants, "stieltjes_shift"),
            ((0, F(2)), (0, F(1, 2)))),
        Row("shift-general", _late(constants, "stieltjes_shift"),
            ((1, F(1)), (1, F(1, 2))))],
    "gamma0-digamma": [
        Row("eq-2.10-gamma0-digamma",
            (lambda x, cfg: _hasse_gamma(0, x, cfg),
             lambda x, cfg: -gammafuncs.digamma(x, cfg).value),
            (F(3, 10), F(1), F(7, 4)), 12)],
    "digamma-integral": [
        Row("digamma-log-integral",
            _late(gammafuncs, "digamma_integral_check"),
            (F(1), F(2), mp.e))],
    "coffey-integral": [
        Row("coffey-integral-n{0}",
            _late(constants, "coffey_difference_integral"),
            ((1, 1), (2, 1), (1, 2)))],
    "digamma-series": [
        Row("eq-2.11-digamma-series",
            (_value(constants, "digamma_hasse_series"),
             _value(gammafuncs, "digamma")),
            (F(1), F(2), F(1, 2)), 12, "x={0}")],
    "gamma1-prime": _gamma1_prime_checks,
    "elementary-fourier": _elementary_fourier,
    "hurwitz-fourier": [
        Row("eq-3.10-hurwitz-fourier",
            (_value(hurwitz, "zeta_fourier"), _zeta),
            ((-0.5, F(3, 10)), (-1.0, F(7, 10)), (0.5, F(1, 4))), 6,
            "s={0}")],
    "lerch-identity": [
        Row("eq-3.14-lerch-identity",
            (lambda x, cfg: (hurwitz.zeta_prime0(x, "hasse", cfg).value
                             + mp.log(2 * mp.pi) / 2),
             _value(gammafuncs, "log_gamma")),
            tuple(F(k, 10) for k in range(1, 10)), 10)],
    "kummer": [
        Row("kummer-log-gamma", _late(fourier, "kummer_log_gamma"),
            (F(1, 4), F(1, 3), F(2, 3)))],
    "series-316": [
        Row("odd-sine-log-series", _late(fourier, "series_316"),
            (F(1, 4), F(1, 2), F(3, 4)))],
    "wallis": [
        Row("eq-3.17-wallis",
            (lambda cfg: fourier.wallis_alternating(cfg).value,
             lambda cfg: mp.log(mp.pi / 2)),
            ((),), 10)],
    "deninger": [
        Row("log-cosine-closed-form", _late(fourier, "deninger_f"),
            (F(1, 2), F(1, 4), F(1, 3)))],
    "landau-f": [
        Row("log-cosine-functional-eq", _late(fourier, "landau_f_functional"),
            (F(1, 4), F(1, 6), F(1, 8)))],
    "gamma1-fourier": [
        Row("eq-3.23-gamma1-fourier",
            (_value(fourier, "gamma1_fourier"),
             lambda x, cfg: _gamma(1, x, cfg)),
            (F(1, 4), F(1, 3), F(1, 2)), 4)],
    "series-325-family": [
        Row("odd-cosine-stieltjes", _family("3.25"), (F(1, 3),)),
        Row("odd-cosine-rational", _family("3.27"), (F(1, 4),)),
        Row("cosine-stieltjes", _family("3.28"), (F(1, 3),)),
        Row("sine-stieltjes", _family("3.29"), (F(1, 3),))],
    "kolbig": _kolbig,
    "gamma1-rational": [
        Row("gamma1-rational-closed-form",
            (_late(constants, "gamma1_rational"),
             lambda r, cfg: _gamma(1, r, cfg)),
            (F(1, 2), F(1, 4), F(1, 5)), 8, "{0}")],
    "adamchik": [
        Row("eq-3.36-adamchik", _late(constants, "adamchik_reflection"),
            (F(1, 3), F(1, 4), F(2, 5)), meta="{0}")],
    "landau-gamma1": [
        Row("landau-gamma1-functional",
            _late(constants, "landau_gamma1_functional"),
            (F(1, 6), F(1, 5)))],
    "ramanujan": [
        Row(None, lambda cfg: constants.coffey_ramanujan_sum(cfg), ((),))],
    "sondow": _sondow,
    "poisson": [
        Row("eq-4.1-poisson",
            (_value(hurwitz, "poisson_zeta"), _zeta),
            ((2.0, F(1)), (3.0, F(1, 2))), 5, "s={0}")],
    "briggs": [
        Row("eq-4.2-briggs",
            (_value(constants, "briggs_gamma"),
             _oracle_gamma),
            ((0, F(1)), (0, F(2)), (1, F(1))), 4, "m={0}")],
    "bourguet": [
        Row("eq-4.4-bourguet",
            (_value(gammafuncs, "bourguet_log_gamma"),
             _value(gammafuncs, "log_gamma")),
            (F(1), F(5, 2), F(10)), 4)],
    "srivastava-choi": [
        Row("eq-5.1-srivastava-choi",
            (_value(hurwitz, "zeta_srivastava_choi"), _zeta),
            ((2.0, F(1)), (0.5, F(2)), (3.0, F(3, 2))), 10, "s={0}")],
    "bell-series": [
        Row("eq-5.2-bell-series",
            (_value(constants, "bell_series_gamma"), _oracle_gamma),
            ((0, F(1)), (1, F(1)), (2, F(1)), (2, F(3, 2))), 8, "m={0}")],
    "route-agreement": [
        Row("stieltjes-route-agreement", (_hasse_gamma, _oracle_gamma),
            ((0, F(1)), (1, F(1, 2)), (2, F(3, 2))), 12,
            "m={0} hasse vs oracle")],
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

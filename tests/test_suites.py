"""The suite table keeps its ids, and the fast suites keep their rows at
20 and 50 digits."""

import pytest

from stieltjes.core import PrecisionConfig
from stieltjes.suites import SUITES, run_suites

SUITE_IDS = [
    "recurrence", "shift", "gamma0-digamma", "digamma-integral",
    "coffey-integral", "digamma-series", "gamma1-prime", "elementary-fourier",
    "hurwitz-fourier", "lerch-identity", "kummer", "series-316", "wallis",
    "deninger", "landau-f", "gamma1-fourier", "series-325-family", "kolbig",
    "gamma1-rational", "adamchik", "landau-gamma1", "ramanujan", "sondow",
    "poisson", "briggs", "bourguet", "srivastava-choi", "bell-series",
    "route-agreement",
]

NEGATIVE = "integrand negative on (0,1)"
SHIFT_DERIVED = "m>=1 generalization (derived, not displayed)"
KOLBIG_SIGN = "sign of the integral term corrected from the printed form"
RAMANUJAN_PRINTED = ("paper-discrepancy: printed Gamma(1/4) variant; "
                     "Gamma(3/4) matches the summed value")

# (identity, x, meta, pass) of every report, as `validate --json` prints them
FAST_SUITES = {
    "recurrence": [("eq-2.8-recurrence", "0.3", "", True),
                   ("eq-2.8-recurrence", "1.0", "", True),
                   ("eq-2.8-recurrence", "2.5", "", True)],
    "coffey-integral": [("coffey-integral-n1", "1.0", NEGATIVE, True),
                        ("coffey-integral-n1", "2.0", NEGATIVE, True),
                        ("coffey-integral-n2", "1.0", NEGATIVE, True)],
    "gamma1-prime": [
        ("gamma1-derivative-negative", "10.0", "pass iff value < 0", True),
        ("gamma1-derivative-negative", "2.71828182846", "pass iff value < 0",
         True),
        ("gamma1-derivative-negative", "4.0", "pass iff value < 0", True)],
    "elementary-fourier": [("eq-3.8-sawtooth", "0.25", "", True),
                           ("eq-3.8-sawtooth", "0.3", "", True),
                           ("eq-3.9-log-sine", "0.25", "", True),
                           ("eq-3.9-log-sine", "0.3", "", True)],
    "kummer": [("kummer-log-gamma", "0.25", "", True),
               ("kummer-log-gamma", "0.333333333333", "", True),
               ("kummer-log-gamma", "0.666666666667", "", True)],
    "series-316": [("odd-sine-log-series", "0.25", "", True),
                   ("odd-sine-log-series", "0.5", "", True),
                   ("odd-sine-log-series", "0.75", "", True)],
    "wallis": [("eq-3.17-wallis", "", "", True)],
    "shift": [("eq-2.9-shift", "0.5", "", True),
              ("eq-2.9-shift", "2.0", "", True),
              ("shift-general", "0.5", SHIFT_DERIVED, True),
              ("shift-general", "1.0", SHIFT_DERIVED, True)],
    "deninger": [("log-cosine-closed-form", "0.25", "", True),
                 ("log-cosine-closed-form", "0.333333333333", "", True),
                 ("log-cosine-closed-form", "0.5", "", True)],
    "landau-f": [("log-cosine-functional-eq", "0.125", "", True),
                 ("log-cosine-functional-eq", "0.166666666667", "", True),
                 ("log-cosine-functional-eq", "0.25", "", True)],
    "series-325-family": [("cosine-stieltjes", "0.333333333333", "", True),
                          ("odd-cosine-rational", "0.25", "", True),
                          ("odd-cosine-stieltjes", "0.333333333333", "",
                           True),
                          ("sine-stieltjes", "0.333333333333", "", True)],
    "kolbig": [("eq-3.30-kolbig-equivalence", "", "", True),
               ("eq-3.30-kolbig-integrated", "", KOLBIG_SIGN, True),
               ("eq-3.30-kolbig-quadrature", "", "", True)],
    "gamma1-rational": [("gamma1-rational-closed-form", "0.2", "1/5", True),
                        ("gamma1-rational-closed-form", "0.25", "1/4", True),
                        ("gamma1-rational-closed-form", "0.5", "1/2", True)],
    "adamchik": [("eq-3.36-adamchik", "0.25", "1/4", True),
                 ("eq-3.36-adamchik", "0.333333333333", "1/3", True),
                 ("eq-3.36-adamchik", "0.4", "2/5", True)],
    "landau-gamma1": [("landau-gamma1-functional", "0.166666666667", "",
                       True),
                      ("landau-gamma1-functional", "0.2", "", True)],
    "digamma-integral": [("digamma-log-integral", "1.0", NEGATIVE, True),
                         ("digamma-log-integral", "2.0", NEGATIVE, True),
                         ("digamma-log-integral", "2.71828182846", NEGATIVE,
                          True)],
    "sondow": [("eq-3.31-sondow-routes", "", "series vs integral at z=1/2",
                True),
               ("eq-3.31-sondow-z1", "", "", True),
               ("eq-3.31-sondow-zm1", "", "", True),
               ("sondow-2q-im", "", "omega=e^(i pi/2)", True),
               ("sondow-2q-re", "", "omega=e^(i pi/2)", True)],
    "poisson": [("eq-4.1-poisson", "0.5", "s=3.0", True),
                ("eq-4.1-poisson", "1.0", "s=2.0", True)],
    "briggs": [("eq-4.2-briggs", "1.0", "m=0", True),
               ("eq-4.2-briggs", "1.0", "m=1", True),
               ("eq-4.2-briggs", "2.0", "m=0", True)],
    "bourguet": [("eq-4.4-bourguet", "1.0", "", True),
                 ("eq-4.4-bourguet", "10.0", "", True),
                 ("eq-4.4-bourguet", "2.5", "", True)],
    "ramanujan": [("ramanujan-closed-form", "", "Gamma(3/4) variant", True),
                  ("ramanujan-closed-form-as-printed", "", RAMANUJAN_PRINTED,
                   False),
                  ("ramanujan-coffey-display", "0.25", "", True)],
}


def test_suite_ids_and_order():
    assert list(SUITES) == SUITE_IDS


@pytest.mark.parametrize("suite,digits", [
    # the 20-digit case keeps the bare suite name as its id
    pytest.param(suite, digits,
                 id=suite if digits == 20 else f"{suite}-{digits}")
    for suite in sorted(FAST_SUITES) for digits in (20, 50)])
def test_fast_suite_rows(suite, digits):
    reports, ok = run_suites([suite], PrecisionConfig(digits=digits))
    rows = sorted((d["identity"], d.get("x", ""), d.get("meta", ""), d["pass"])
                  for d in (r.as_dict() for r in reports))
    assert rows == FAST_SUITES[suite]
    assert ok

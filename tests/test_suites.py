"""The suite table keeps its ids, and the fast suites keep their rows."""

import pytest

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
    "ramanujan": [("ramanujan-closed-form", "", "Gamma(3/4) variant", True),
                  ("ramanujan-closed-form-as-printed", "", RAMANUJAN_PRINTED,
                   False),
                  ("ramanujan-coffey-display", "0.25", "", True)],
}


def test_suite_ids_and_order():
    assert list(SUITES) == SUITE_IDS


@pytest.mark.parametrize("suite", sorted(FAST_SUITES))
def test_fast_suite_rows(suite, cfg20):
    reports, ok = run_suites([suite], cfg20)
    rows = sorted((d["identity"], d.get("x", ""), d.get("meta", ""), d["pass"])
                  for d in (r.as_dict() for r in reports))
    assert rows == FAST_SUITES[suite]
    assert ok

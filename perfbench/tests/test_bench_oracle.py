"""The oracle check flags a wrong value and an error estimate that is too small."""

from mpmath import mp, mpf

from perfbench import oracle


def _printed(value, digits):
    return mp.nstr(value, digits, strip_zeros=False)


def test_correct_value_with_honest_claim_passes():
    ref = oracle.cli_reference("log_gamma", {"x": "7/3"}, 30)
    with mp.workdps(50):
        printed = _printed(ref, 30)
    assert oracle.judge(printed, ref, 30, "1.00e-30") == (True, False)


def test_planted_wrong_value_is_flagged():
    ref = oracle.cli_reference("digamma", {"x": "2.5"}, 20)
    with mp.workdps(50):
        printed = _printed(ref + mpf(10) ** -17, 20)
    ok, _ = oracle.judge(printed, ref, 20, "1.00e-20")
    assert not ok


def test_planted_too_small_err_estimate_is_flagged():
    # off by 3e-25: inside the 1e-20 tolerance, but ten thousand times
    # the 1e-29 error the output claims
    ref = oracle.cli_reference("gamma_m", {"m": 2, "x": "1/3"}, 20)
    with mp.workdps(50):
        printed = _printed(ref + 3 * mpf(10) ** -25, 40)
    ok, overclaim = oracle.judge(printed, ref, 20, "1.00e-29")
    assert ok and overclaim


def test_print_rounding_is_not_an_error():
    # 20 significant digits of a value near 1e6 leave a 5e-14 rounding step
    ref = oracle.cli_reference("log_gamma", {"x": "98765.4321"}, 20)
    with mp.workdps(50):
        printed = _printed(ref, 20)
    assert oracle.judge(printed, ref, 20, "1.00e-20") == (True, False)


def test_trig_closed_forms_match_direct_sums():
    # the Hurwitz-formula oracle against a directly summed absolutely
    # convergent case, s = -1: coefficient (2 pi n)^-2
    with mp.workdps(40):
        x = mpf(1) / 3
        direct = mp.nsum(lambda n: (2 * mp.pi * n) ** -2 * mp.cospi(2 * n * x),
                         [1, mp.inf])
        ref = oracle.trig_reference("power", "cos", "1/3", "-1", 20)
        assert abs(direct - ref) < mpf(10) ** -30

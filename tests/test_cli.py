import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpc, mpf

import stieltjes
from stieltjes import (DomainError, constants, fourier, gammafuncs, hurwitz,
                       routes, suites)
from stieltjes.cache import ResultCache
from stieltjes.cli import main
from stieltjes.core import PrecisionConfig
from stieltjes.kernels import hurwitz_zeta_em

from conftest import assert_claim
from reference_values import GAMMA, GAMMA1, GAMMA1_HALF, ZETA2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def compute_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestCompute:
    def test_euler_constant_digits30(self, capsys, tmp_path):
        code, doc = compute_json(
            capsys, "compute", "gamma_m", "-m", "0", "-x", "1",
            "--digits", "30", "--cache-dir", str(tmp_path))
        assert code == 0
        assert doc["result"]["value"].startswith(
            "0.577215664901532860606512090082")
        assert doc["result"]["converged"] is True

    def test_zeta_basel(self, capsys, tmp_path):
        code, doc = compute_json(
            capsys, "compute", "zeta", "-s", "2", "--digits", "25",
            "--cache-dir", str(tmp_path))
        assert code == 0
        assert doc["result"]["value"].startswith(str(ZETA2)[:20])

    def test_rational_argument_closed_form(self, capsys, tmp_path):
        code, doc = compute_json(
            capsys, "compute", "gamma_m", "-m", "1", "-x", "1/2",
            "--method", "hasse", "--digits", "25",
            "--cache-dir", str(tmp_path))
        assert code == 0
        closed = (mpf(GAMMA1) - mp.log(2) ** 2 - 2 * mpf(GAMMA) * mp.log(2))
        assert abs(mpf(doc["result"]["value"]) - closed) < mpf(10) ** -23

    def test_determinism(self, capsys, tmp_path):
        _, doc1 = compute_json(capsys, "compute", "digamma", "-x", "1.5",
                               "--digits", "20", "--no-cache")
        _, doc2 = compute_json(capsys, "compute", "digamma", "-x", "1.5",
                               "--digits", "20", "--no-cache")
        assert doc1["result"] == doc2["result"]
        assert json.dumps(doc1["result"], sort_keys=True) == \
            json.dumps(doc2["result"], sort_keys=True)

    def test_sondow_complex_output(self, capsys, tmp_path):
        code, doc = compute_json(
            capsys, "compute", "sondow_gamma", "-x", "1/2",
            "--method", "2q", "--digits", "20", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "value_im" in doc["result"]

    def test_near_pole_on_default_route(self, capsys, tmp_path):
        # |s - 1| = 1e-9: the pole term 1/(s - 1) dominates the value
        code, doc = compute_json(
            capsys, "compute", "zeta", "-s", "1.000000001", "-x", "1/3",
            "--digits", "30", "--cache-dir", str(tmp_path))
        assert code == 0
        assert doc["result"]["method"] == "em"
        with mp.workdps(50):
            ref = mp.zeta(mpf("1.000000001"), mpf(1) / 3)
            assert abs(mpf(doc["result"]["value"]) - ref) <= abs(ref) * mpf(10) ** -29

    @pytest.mark.parametrize("s", ["1.00000000000000000000000000000000001",
                                   "1.0000000000000000000000000000000000000001"])
    def test_s_next_to_the_pole_is_taken_exactly(self, capsys, tmp_path, s):
        # rounding s to the working precision cost s - 1 its digits here,
        # or made it 1 and a pole
        code, doc = compute_json(
            capsys, "compute", "zeta", f"-s={s}", "-x", "1000",
            "--digits", "20", "--cache-dir", str(tmp_path))
        assert code == 0 and doc["result"]["converged"] is True
        assert doc["result"]["params"]["s"] == s
        with mp.workdps(80):
            ref = mp.zeta(mpf(s), 1000)
            actual = abs(mpf(doc["result"]["value"]) - ref)
            assert actual <= abs(ref) * mpf(10) ** -19
            assert mpf(doc["result"]["err_estimate"]) <= abs(ref) * mpf(10) ** -20
        _, again = compute_json(
            capsys, "compute", "zeta", f"-s={s}", "-x", "1000",
            "--digits", "20", "--cache-dir", str(tmp_path))
        assert again["meta"]["cache_hit"] is True

    def test_fourier_route_meets_the_request(self, capsys):
        code, doc = compute_json(
            capsys, "compute", "zeta", "-s", "1/2", "-x", "1/4",
            "--method", "fourier", "--digits", "30", "--no-cache")
        assert code == 0
        assert doc["result"]["converged"] is True
        with mp.workdps(50):
            ref = mp.zeta(mpf(1) / 2, mpf(1) / 4)
            actual = abs(mpf(doc["result"]["value"]) - ref)
            assert actual <= mpf(10) ** -30
            assert mpf(doc["result"]["err_estimate"]) <= mpf(10) ** -30

    @pytest.mark.parametrize("method", ["hasse", "srivastava-choi"])
    def test_near_pole_on_every_route_that_takes_it(self, capsys, method):
        code, doc = compute_json(
            capsys, "compute", "zeta", "-s", "1.000000001", "-x", "1/3",
            "--method", method, "--digits", "20", "--no-cache")
        assert code == 0 and doc["result"]["converged"] is True
        printed = doc["result"]["value"]
        with mp.workdps(50):
            ref = mp.zeta(mpf("1.000000001"), mpf(1) / 3)
            # 20 printed digits: half a unit in the last one
            half_ulp = mpf(10) ** Decimal(printed).as_tuple().exponent / 2
            actual = abs(mpf(printed) - ref)
            assert actual <= mpf(10) ** -20 * abs(ref) + half_ulp
            assert actual <= mpf(doc["result"]["err_estimate"]) + half_ulp
        code, _, err = run_cli(capsys, "compute", "zeta", "-s", "1", "-x",
                               "1/3", "--method", method, "--digits", "20",
                               "--no-cache")
        assert code == 2 and "pole" in err

    def test_route_short_of_the_request_exits_3(self, capsys):
        # Poisson's rotated integrand at s = 10^6, x = 1 is a peak of width
        # x/sqrt(s) under which the phase turns ~sqrt(s) times: its panels
        # run out of their node budget, the route falls short of 20
        # digits, and its claim says so and still covers the actual error
        code, doc = compute_json(
            capsys, "compute", "zeta", "-s", "1000000", "-x", "1",
            "--method", "poisson", "--digits", "20", "--no-cache")
        assert code == 3
        assert doc["result"]["converged"] is False
        with mp.workdps(60):
            ref = mp.zeta(1000000, 1)
            claim = mpf(doc["result"]["err_estimate"])
            assert claim > mpf(10) ** -20 * max(1, abs(ref))
            assert abs(mpf(doc["result"]["value"]) - ref) <= claim

    def test_term_budget_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "zeta", "-s", "2", "--max-terms", "5"])
        assert exc.value.code == 2

    def test_zeta_prime0_fourier_route_meets_the_request(self, capsys):
        # its sums stopped at 1e-12 while the CLI claimed 1e-30
        code, doc = compute_json(
            capsys, "compute", "zeta_prime0", "-x", "1/4",
            "--method", "fourier", "--digits", "30", "--no-cache")
        assert code == 0
        with mp.workdps(50):
            ref = mp.zeta(0, mpf(1) / 4, 1)
            actual = abs(mpf(doc["result"]["value"]) - ref)
            assert actual <= mpf(10) ** -30
            assert mpf(doc["result"]["err_estimate"]) <= mpf(10) ** -30
        assert doc["result"]["terms_used"] > 0

    def test_zeta_doubleprime0_prints_the_engine_claim(self, capsys):
        code, doc = compute_json(
            capsys, "compute", "zeta_doubleprime0", "-x", "1/3",
            "--digits", "20", "--no-cache")
        assert code == 0
        with mp.workprec(200):
            res = hurwitz_zeta_em(0, mpf(1) / 3, 2, PrecisionConfig(digits=20))
        assert doc["result"]["terms_used"] == res.terms_used > 0
        assert mpf(doc["result"]["err_estimate"]) < mpf(10) ** -20

    @pytest.mark.parametrize("argv,reference", [
        (("gamma_m", "-m", "1", "-x", "1", "--method", "briggs"),
         lambda: mp.stieltjes(1)),
        (("zeta", "-s", "2", "--method", "poisson"), lambda: mp.zeta(2))])
    def test_oscillatory_route_meets_the_request(self, capsys, argv,
                                                 reference):
        # each prints 30 digits within the request, and claims no more
        code, doc = compute_json(capsys, "compute", *argv, "--digits", "30",
                                 "--no-cache")
        assert code == 0
        assert doc["result"]["converged"] is True
        with mp.workdps(70):
            ref = reference()
            # 30 printed digits: half a unit in the last one
            half_ulp = 5 * mpf(10) ** (mp.floor(mp.log10(abs(ref))) - 30)
            actual = abs(mpf(doc["result"]["value"]) - ref)
            assert actual <= mpf(10) ** -30 * max(1, abs(ref)) + half_ulp
            assert mpf(doc["result"]["err_estimate"]) <= mpf(10) ** -30

    @pytest.mark.parametrize("s", ["inf", "nan", "1e400"])
    def test_non_finite_s_exits_2(self, s):
        # each ran until killed: the EM plan looped on float(s), inf or nan
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(stieltjes.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "stieltjes.cli", "compute", "zeta",
             f"-s={s}", "--digits", "20", "--no-cache"],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert "error: s must" in proc.stderr

    @pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
    def test_non_finite_x_exits_2(self, capsys, x):
        # x = inf ran the EM route and exited 3 with an err_estimate of nan
        code, _, err = run_cli(capsys, "compute", "zeta", "-s", "2",
                               f"-x={x}", "--digits", "20", "--no-cache")
        assert code == 2
        assert "error: x must be a finite number" in err

    def test_hasse_s_beyond_float_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "zeta", "-s", "1e400",
                               "--method", "hasse", "--digits", "20",
                               "--no-cache")
        assert code == 2
        assert "error: s must" in err

    def test_fourier_s_beyond_float_range_exits_2(self, capsys):
        # Gamma(1 - s) was sized by lgamma(inf): "tolerance must be positive"
        code, _, err = run_cli(capsys, "compute", "zeta", "-s=-1e400",
                               "-x", "1/3", "--method", "fourier",
                               "--digits", "20", "--no-cache")
        assert code == 2
        assert "error: s must lie within float range" in err

    def test_bad_quantity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "nonsense", "-x", "1"])
        assert exc.value.code == 2

    def test_bad_digits_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "digamma", "-x", "1",
                               "--digits", "500")
        assert code == 2
        assert "digits" in err


@pytest.mark.parametrize("argv", [
    ("validate", "--suite", "wallis", "--method", "hasse"),
    ("validate", "--suite", "wallis", "--cache-dir", "unused"),
    ("compute", "digamma", "-x", "1", "--json"),
    ("table", "digamma", "--grid", "1:2:2", "--json"),
    ("table", "digamma", "--grid", "1:2:2", "--cache-dir", "unused")])
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestValidate:
    def test_small_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "validate", "--suite",
                               "wallis,recurrence", "--digits", "20",
                               "--out", str(out_path))
        assert code == 0
        assert "PASS" in out
        doc = json.loads(out_path.read_text())
        assert doc["all_passed"] is True
        assert any(e["identity"] == "eq-3.17-wallis" for e in doc["reports"])

    def test_adamchik_suite_contents(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "validate", "--suite", "adamchik",
                               "--digits", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        metas = {e["meta"] for e in doc["reports"]}
        assert metas == {"1/3", "1/4", "2/5"}

    def test_meta_times_each_requested_suite(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--suite",
                               "wallis,recurrence", "--digits", "20", "--json")
        assert code == 0
        suite_ms = json.loads(out)["meta"]["suite_ms"]
        assert set(suite_ms) == {"wallis", "recurrence"}
        assert all(ms >= 0 for ms in suite_ms.values())

    def test_empty_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--suite", " ",
                               "--digits", "20")
        assert code == 2

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--suite", "bogus",
                               "--digits", "20")
        assert code == 2
        assert "unknown suite" in err

    def test_side_by_side_suites_print_what_serial_suites_give(self, capsys):
        names = ["wallis", "recurrence", "adamchik", "kummer"]
        code, out, _ = run_cli(capsys, "validate", "--json", "--suite",
                               ",".join(names), "--digits", "20")
        assert code == 0
        doc = json.loads(out)
        cfg = PrecisionConfig(digits=20)
        serial, passed = [], True
        for n in names:
            reports, ok = suites.run_suites([n], cfg)
            serial += [r.as_dict() for r in reports]
            passed = passed and ok
        serial.sort(key=lambda e: (e["identity"], e.get("x", ""),
                                   e.get("meta", "")))
        assert doc["reports"] == serial
        assert doc["suites"] == names
        assert doc["all_passed"] is passed
        assert set(doc["meta"]["suite_ms"]) == set(names)

    def test_one_suite_runs_in_this_process(self, capsys, monkeypatch):
        pids = []
        monkeypatch.setitem(suites.SUITES, "wallis",
                            lambda cfg: pids.append(os.getpid()) or [])
        code, _, _ = run_cli(capsys, "validate", "--json", "--suite",
                             "wallis", "--digits", "20")
        assert code == 0
        assert pids == [os.getpid()]

    def test_kernel_failure_in_a_worker_exits_3_and_leaves_no_process(
            self, capsys, monkeypatch):
        def fail(cfg):
            raise RuntimeError("planted kernel failure")

        # a forked worker inherits the patched table
        monkeypatch.setitem(suites.SUITES, "wallis", fail)
        code, out, err = run_cli(capsys, "validate", "--json", "--suite",
                                 "recurrence,wallis", "--digits", "20")
        assert code == 3
        assert "kernel failure during validation" in err
        assert "planted kernel failure" in err
        assert out == ""
        assert multiprocessing.active_children() == []

    def test_ramanujan_annotated_failure_keeps_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--suite", "ramanujan",
                               "--digits", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        printed = [e for e in doc["reports"]
                   if e["identity"] == "ramanujan-closed-form-as-printed"]
        assert len(printed) == 1
        assert printed[0]["pass"] is False
        assert "paper-discrepancy" in printed[0]["meta"]
        assert doc["all_passed"] is True


class TestTable:
    def test_digamma_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table", "digamma", "--grid", "1:5:5",
                               "--digits", "20")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert abs(mpf(rows[0]["value"]) + mpf(GAMMA)) < mpf(10) ** -18
        # psi(5) = -gamma + 25/12
        assert abs(mpf(rows[4]["value"])
                   - (-mpf(GAMMA) + mpf(25) / 12)) < mpf(10) ** -18

    def test_gamma1_antisymmetry_visible(self, capsys):
        code, out, _ = run_cli(capsys, "table", "gamma_m", "-m", "1",
                               "--grid", "0.1:0.9:9", "--digits", "15")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        # gamma_1(1-x) - gamma_1(x) antisymmetry: row k vs row 8-k
        d1 = mpf(rows[8]["value"]) - mpf(rows[0]["value"])
        d2 = mpf(rows[0]["value"]) - mpf(rows[8]["value"])
        assert abs(d1 + d2) < mpf(10) ** -12

    def test_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "table", "log_gamma",
                               "--grid", "2:2:1", "--digits", "15")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1

    def test_unconverged_rows_exit_3(self, capsys):
        # Poisson at s = 10^6 runs out of its node budget; at x = 1.00001
        # zeta(s, x) is still 5e-5 (at 1.0001 it is 3e-44, which the first
        # panels meet)
        code, out, _ = run_cli(capsys, "table", "zeta", "-s", "1000000",
                               "--method", "poisson", "--grid", "1:1.00001:2",
                               "--digits", "20")
        assert code == 3
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert all(r["converged"] == "False" for r in rows)

    def test_bad_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "digamma", "--grid", "0:1:5",
                               "--digits", "15")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "digamma", "--grid", "1:2:2",
                               "--digits", "15", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 2


class TestCache:
    def test_round_trip_identical_string(self, capsys, tmp_path):
        args = ("compute", "digamma", "-x", "2.5", "--digits", "30",
                "--cache-dir", str(tmp_path))
        _, doc1 = compute_json(capsys, *args)
        assert doc1["meta"]["cache_hit"] is False
        _, doc2 = compute_json(capsys, *args)
        assert doc2["meta"]["cache_hit"] is True
        assert doc1["result"]["value"] == doc2["result"]["value"]

    def test_lower_digit_entry_not_served(self, capsys, tmp_path):
        base = ("compute", "digamma", "-x", "2.5", "--cache-dir",
                str(tmp_path))
        compute_json(capsys, *base, "--digits", "20")
        _, doc = compute_json(capsys, *base, "--digits", "30")
        assert doc["meta"]["cache_hit"] is False
        assert len(doc["result"]["value"]) > 25

    def test_corrupted_entry_recomputes(self, capsys, tmp_path):
        args = ("compute", "digamma", "-x", "2.5", "--digits", "20",
                "--cache-dir", str(tmp_path))
        _, doc1 = compute_json(capsys, *args)
        for entry in tmp_path.iterdir():
            entry.write_text("not json")
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        doc2 = json.loads(out)
        assert doc2["meta"]["cache_hit"] is False
        assert "warning" in err
        assert doc2["result"]["value"] == doc1["result"]["value"]

    def test_default_route_spelled_out_is_a_hit(self, capsys, tmp_path):
        base = ("compute", "gamma_m", "-m", "0", "-x", "1", "--digits", "20",
                "--cache-dir", str(tmp_path))
        _, doc1 = compute_json(capsys, *base)
        assert doc1["meta"]["cache_hit"] is False
        assert doc1["result"]["method"] == "em"
        _, doc2 = compute_json(capsys, *base, "--method", "em")
        assert doc2["meta"]["cache_hit"] is True
        assert doc2["result"]["method"] == "em"
        assert len(list(tmp_path.iterdir())) == 1

    def test_auto_names_the_route_it_ran(self, capsys, tmp_path):
        base = ("compute", "zeta", "-s", "2", "--digits", "20",
                "--cache-dir", str(tmp_path))
        _, doc1 = compute_json(capsys, *base, "--method", "auto")
        assert doc1["result"]["method"] == "em"
        _, doc2 = compute_json(capsys, *base, "--method", "em")
        assert doc2["meta"]["cache_hit"] is True
        _, doc3 = compute_json(capsys, *base, "--deriv", "1")
        assert doc3["result"]["method"] == "em"

    def test_other_version_not_served(self, tmp_path, monkeypatch):
        from stieltjes import cache as cache_module
        monkeypatch.setattr(cache_module, "__version__", "0.0.0")
        ResultCache(tmp_path).put("q", {"x": "1"}, "m", 20,
                                  {"result": {"value": "1.5"}})
        monkeypatch.undo()
        assert ResultCache(tmp_path).get("q", {"x": "1"}, "m", 20) is None

    def test_hit_reports_the_mpmath_that_computed_it(self, capsys, tmp_path):
        args = ("compute", "digamma", "-x", "2.5", "--digits", "20",
                "--cache-dir", str(tmp_path))
        _, doc1 = compute_json(capsys, *args)
        assert doc1["meta"]["mpmath"] == mpmath.__version__
        (path,) = tmp_path.iterdir()
        entry = json.loads(path.read_text())
        assert entry["mpmath"] == mpmath.__version__
        entry["mpmath"] = "0.0.1"  # as if an older mpmath had computed it
        path.write_text(json.dumps(entry))
        _, doc2 = compute_json(capsys, *args)
        assert doc2["meta"]["cache_hit"] is True
        assert doc2["meta"]["mpmath"] == "0.0.1"
        assert doc2["result"] == doc1["result"]

    def test_entry_without_mpmath_version_is_rewritten(self, capsys,
                                                       tmp_path):
        args = ("compute", "digamma", "-x", "2.5", "--digits", "20",
                "--cache-dir", str(tmp_path))
        _, doc1 = compute_json(capsys, *args)
        (path,) = tmp_path.iterdir()
        entry = json.loads(path.read_text())
        del entry["mpmath"]
        path.write_text(json.dumps(entry))
        _, doc2 = compute_json(capsys, *args)
        assert doc2["meta"]["cache_hit"] is False
        assert doc2["meta"]["mpmath"] == mpmath.__version__
        assert doc2["result"] == doc1["result"]
        assert json.loads(path.read_text())["mpmath"] == mpmath.__version__
        _, doc3 = compute_json(capsys, *args)
        assert doc3["meta"]["cache_hit"] is True

    def test_api_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("q", {"x": "1"}, "m", 20, {"result": {"value": "1.5"}})
        hit = cache.get("q", {"x": "1"}, "m", 20)
        assert hit["result"]["value"] == "1.5"
        assert cache.get("q", {"x": "1"}, "m", 30) is None


def _sondow_reference(x):
    """gamma(e^(i pi p/q)) from its finite form in mp.loggamma."""
    p, q = x.numerator, x.denominator
    omega = mp.expjpi(mpf(p) / q)
    return -mp.log(1 - omega) / omega + mp.fsum(
        omega ** (n - 1) * (mp.loggamma(mpf(n + 1) / (2 * q))
                            - mp.loggamma(mpf(n) / (2 * q)))
        for n in range(1, 2 * q + 1))


X = Fraction(3, 7)
# quantity -> (CLI arguments, the route's own result, mpmath reference)
DEFAULT_ROUTES = {
    "gamma_m": (("-m", "2", "-x", "3/7"),
                lambda cfg: constants.stieltjes_gamma(2, X, "em", cfg),
                lambda: mp.stieltjes(2, mpf(3) / 7)),
    "zeta": (("-s", "5/2", "-x", "3/7", "--deriv", "1"),
             lambda cfg: hurwitz.zeta(Fraction(5, 2), X, 1, "em", cfg),
             lambda: mp.zeta(mpf(5) / 2, mpf(3) / 7, 1)),
    "zeta_prime0": (("-x", "3/7"),
                    lambda cfg: hurwitz.zeta_prime0(X, "em", cfg),
                    lambda: mp.zeta(0, mpf(3) / 7, 1)),
    "zeta_doubleprime0": (("-x", "3/7"),
                          lambda cfg: hurwitz.zeta_doubleprime0(X, "em", cfg),
                          lambda: mp.zeta(0, mpf(3) / 7, 2)),
    "digamma": (("-x", "1.5"),
                lambda cfg: gammafuncs.digamma(Fraction(3, 2), cfg),
                lambda: mp.psi(0, mpf(3) / 2)),
    "log_gamma": (("-x", "100000"),
                  lambda cfg: gammafuncs.log_gamma(100000, cfg),
                  lambda: mp.loggamma(100000)),
    "sondow_gamma": (("-x", "1/3"),
                     lambda cfg: fourier.sondow_gamma(Fraction(1, 3), cfg),
                     lambda: _sondow_reference(Fraction(1, 3))),
}


def _in_fresh_interpreter(argv, report):
    """Run cli.main(argv) in a fresh interpreter, its stdout and stderr in
    the StringIOs out and err; the JSON of the expression ``report``, read
    there after the call."""
    script = (
        "import io, json, sys, contextlib\n"
        "from stieltjes import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    with contextlib.redirect_stderr(err):\n"
        f"        code = cli.main({list(argv)!r})\n"
        f"print(json.dumps({report}))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(stieltjes.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(argv, watched):
    """(exit code, cache_hit, the watched modules loaded) of cli.main(argv)
    in a fresh interpreter."""
    return _in_fresh_interpreter(
        argv, "[code, json.loads(out.getvalue())['meta']['cache_hit']] + "
              f"[m for m in {list(watched)!r} if m in sys.modules]")


def test_compute_imports_neither_suites_nor_a_pool(tmp_path):
    # each CLI request is a fresh interpreter and pays for every import
    argv = ["compute", "digamma", "-x", "2.5", "--digits", "20",
            "--cache-dir", str(tmp_path)]
    unused = ["stieltjes.suites", "multiprocessing", "csv", "stieltjes.fourier",
              "stieltjes.constants", "stieltjes.hurwitz", "dataclasses",
              "stieltjes.gauss"]
    assert _modules_after(argv, unused + ["mpmath"]) == [0, False, "mpmath"]
    # a hit reads one JSON file: no mpmath, no computing module
    computing = ["mpmath", "stieltjes.core", "stieltjes.kernels",
                 "stieltjes.gammafuncs", "stieltjes.fixed"]
    assert _modules_after(argv, unused + computing) == [0, True]
    # the zeta row of the Euler-Maclaurin route names kernels, not hurwitz
    zeta = ["compute", "zeta", "-s", "2", "--digits", "20", "--no-cache"]
    assert _modules_after(zeta, unused + ["stieltjes.kernels"]) == [
        0, False, "stieltjes.kernels"]


def test_every_quantity_has_a_default_route_case():
    assert set(DEFAULT_ROUTES) == set(routes.ROUTES)


def _assert_claim_covers(result, reference):
    """The printed value lies within its printed claim of the reference."""
    parts = [result["value"]] + ([result["value_im"]]
                                 if "value_im" in result else [])
    with mp.workdps(40):
        value = mpc(*[mpf(p) for p in parts])
        ref = reference()
        # printing rounds each part by half a unit in its last digit
        printed = sum(mpf(10) ** Decimal(p).as_tuple().exponent / 2
                      for p in parts)
        assert abs(value - ref) <= mpf(result["err_estimate"]) + printed


@pytest.mark.parametrize("quantity", sorted(DEFAULT_ROUTES))
def test_default_route_prints_its_own_claim(quantity, capsys):
    argv, own, reference = DEFAULT_ROUTES[quantity]
    code, doc = compute_json(capsys, "compute", quantity, *argv,
                             "--digits", "20", "--no-cache")
    result = doc["result"]
    assert code == 0 and result["converged"] is True
    res = own(PrecisionConfig(digits=20))
    assert result["err_estimate"] == mp.nstr(res.err_estimate, 3,
                                             strip_zeros=False)
    assert result["terms_used"] == res.terms_used > 0
    _assert_claim_covers(result, reference)
    assert_claim(res, reference, 20)


def _sondow_real_reference(z):
    """gamma(z) for real |z| < 1 by its defining sum."""
    return mp.nsum(lambda n: z ** (n - 1) * (1 / n - mp.log(1 + 1 / n)),
                   [1, mp.inf])


# (quantity, route) -> (CLI arguments, mpmath reference) for the rows whose
# domain leaves out their quantity's DEFAULT_ROUTES point
ROW_POINTS = {
    ("gamma_m", "briggs"): (("-m", "1", "-x", "3/7"),
                           lambda: mp.stieltjes(1, mpf(3) / 7)),
    ("zeta", "fourier"): (("-s", "1/2", "-x", "3/7"),
                          lambda: mp.zeta(mpf(1) / 2, mpf(3) / 7)),
    ("zeta", "srivastava-choi"): (("-s", "5/2", "-x", "3/7"),
                                  lambda: mp.zeta(mpf(5) / 2, mpf(3) / 7)),
    ("zeta", "poisson"): (("-s", "5/2", "-x", "3/7"),
                          lambda: mp.zeta(mpf(5) / 2, mpf(3) / 7)),
    ("sondow_gamma", "integral"): (("-x", "0.5"),
                                   lambda: _sondow_real_reference(mpf(1) / 2)),
}


def test_row_points_name_table_rows():
    assert set(ROW_POINTS) <= set(routes.TABLE)


@pytest.mark.parametrize("quantity,route",
                         list(routes.TABLE),
                         ids=[f"{q}-{r}" for q, r in routes.TABLE])
def test_every_table_row_runs_within_its_claim(quantity, route, capsys):
    argv, reference = ROW_POINTS.get((quantity, route),
                                     DEFAULT_ROUTES[quantity][::2])
    code, doc = compute_json(capsys, "compute", quantity, *argv,
                             "--method", route, "--digits", "20",
                             "--no-cache")
    assert code == 0 and doc["result"]["converged"] is True
    assert doc["result"]["method"] == route
    _assert_claim_covers(doc["result"], reference)


@pytest.mark.parametrize("command,argv,unread", [
    ("compute", ("digamma", "-x", "2", "--deriv", "3"), "deriv"),
    ("compute", ("gamma_m", "-m", "1", "-x", "1", "-s", "5"), "s"),
    ("compute", ("zeta_prime0", "-x", "1/3", "-m", "2"), "m"),
    ("compute", ("zeta", "-s", "2", "--deriv", "1", "--method", "poisson"),
     "deriv"),
    ("table", ("digamma", "--grid", "1:2:2", "--deriv", "3"), "deriv"),
    ("table", ("log_gamma", "--grid", "1:2:2", "-s", "2"), "s")])
def test_an_argument_the_route_does_not_read_exits_2(capsys, tmp_path,
                                                     command, argv, unread):
    # digamma printed psi(2) with "deriv": 3 in its params, exit 0, and
    # cached it; gamma_m dropped s
    cache = ("--cache-dir", str(tmp_path)) if command == "compute" else ()
    code, out, err = run_cli(capsys, command, *argv, "--digits", "20", *cache)
    assert code == 2 and out == ""
    assert f"takes no {unread}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("quantity", sorted(routes.ROUTES))
def test_unknown_method_exits_2_before_mpmath_loads(quantity):
    argv = ["compute", quantity, *DEFAULT_ROUTES[quantity][0],
            "--method", "bogus", "--digits", "20", "--no-cache"]
    code, err, loaded = _in_fresh_interpreter(
        argv, "[code, err.getvalue(), 'mpmath' in sys.modules]")
    assert code == 2 and not loaded
    assert f"error: unknown route 'bogus' for {quantity}; routes: " in err
    assert ", ".join(routes.ROUTES[quantity]) in err


@pytest.mark.parametrize("call", [
    lambda: constants.stieltjes_gamma(1, 1, "bogus"),
    lambda: hurwitz.zeta(2, 1, 0, "bogus"),
    lambda: hurwitz.zeta_prime0(mpf(1) / 3, "bogus"),
    lambda: hurwitz.zeta_doubleprime0(mpf(1) / 3, "bogus"),
    lambda: fourier.sondow_gamma(mpf(1) / 2, route="bogus")],
    ids=["stieltjes_gamma", "zeta", "zeta_prime0", "zeta_doubleprime0",
         "sondow_gamma"])
def test_public_dispatcher_refuses_an_unknown_route(call):
    with pytest.raises(DomainError, match="unknown route 'bogus'"):
        call()


@pytest.mark.parametrize("quantity", sorted(routes.ROUTES))
def test_auto_runs_the_default_route(quantity, capsys):
    argv = DEFAULT_ROUTES[quantity][0]
    _, doc = compute_json(capsys, "compute", quantity, *argv, "--method",
                          "auto", "--digits", "20", "--no-cache")
    _, default = compute_json(capsys, "compute", quantity, *argv,
                              "--digits", "20", "--no-cache")
    assert doc["result"] == default["result"]
    assert doc["result"]["method"] == routes.ROUTES[quantity][0]

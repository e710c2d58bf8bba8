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
from stieltjes import constants, fourier, gammafuncs, hurwitz, suites
from stieltjes.cache import ResultCache
from stieltjes.cli import QUANTITIES, main
from stieltjes.core import PrecisionConfig
from stieltjes.kernels import hurwitz_zeta_em

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
        # |s - 1| = 1e-9 lies inside the band the Hasse route refuses
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

    def test_fourier_route_short_of_its_term_budget_exits_3(self, capsys):
        code, doc = compute_json(
            capsys, "compute", "zeta", "-s", "1/2", "-x", "1/4",
            "--method", "fourier", "--digits", "30", "--max-terms", "20",
            "--no-cache")
        assert code == 3
        assert doc["result"]["converged"] is False
        assert mpf(doc["result"]["err_estimate"]) > mpf(10) ** -30

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

    @pytest.mark.parametrize("argv", [
        ("gamma_m", "-m", "1", "-x", "1", "--method", "briggs"),
        ("zeta", "-s", "2", "--method", "poisson")])
    def test_verification_route_short_of_the_request_exits_3(self, capsys,
                                                            argv):
        # these routes stop near 1e-12; they printed converged: true
        code, doc = compute_json(capsys, "compute", *argv, "--digits", "30",
                                 "--no-cache")
        assert code == 3
        assert doc["result"]["converged"] is False
        assert mpf(doc["result"]["err_estimate"]) > mpf(10) ** -30

    def test_bad_quantity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "nonsense", "-x", "1"])
        assert exc.value.code == 2

    def test_bad_digits_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "digamma", "-x", "1",
                               "--digits", "500")
        assert code == 2
        assert "digits" in err


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
        cfg = PrecisionConfig(digits=20, max_terms=10 ** 6)
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
        code, out, _ = run_cli(capsys, "table", "gamma_m", "-m", "0",
                               "--method", "bell", "--max-terms", "20",
                               "--grid", "1:2:2", "--digits", "20")
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


def _modules_after(argv, watched):
    """Run cli.main(argv) in a fresh interpreter: (exit code, cache_hit,
    the watched modules it loaded)."""
    script = (
        "import io, json, sys, contextlib\n"
        "from stieltjes import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "hit = json.loads(out.getvalue())['meta']['cache_hit']\n"
        f"print(json.dumps([code, hit] + [m for m in {list(watched)!r} "
        "if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(stieltjes.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_compute_imports_neither_suites_nor_a_pool(tmp_path):
    # each CLI request is a fresh interpreter and pays for every import
    argv = ["compute", "digamma", "-x", "2.5", "--digits", "20",
            "--cache-dir", str(tmp_path)]
    unused = ["stieltjes.suites", "multiprocessing", "csv", "stieltjes.fourier",
              "stieltjes.constants", "stieltjes.hurwitz", "dataclasses"]
    assert _modules_after(argv, unused + ["mpmath"]) == [0, False, "mpmath"]
    # a hit reads one JSON file: no mpmath, no computing module
    computing = ["mpmath", "stieltjes.core", "stieltjes.kernels",
                 "stieltjes.gammafuncs"]
    assert _modules_after(argv, unused + computing) == [0, True]


def test_every_quantity_has_a_default_route_case():
    assert set(DEFAULT_ROUTES) == set(QUANTITIES)


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
    parts = [result["value"]] + ([result["value_im"]]
                                 if "value_im" in result else [])
    with mp.workdps(40):
        value = mpc(*[mpf(p) for p in parts])
        ref = reference()
        # printing rounds each part by half a unit in its last digit
        printed = sum(mpf(10) ** Decimal(p).as_tuple().exponent / 2
                      for p in parts)
        assert abs(value - ref) <= mpf(result["err_estimate"]) + printed
        assert abs(res.value - ref) <= res.err_estimate

"""The package's public names: the same objects as in their modules, looked
up lazily, so that importing the package loads no module and no mpmath."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import stieltjes

# every name the package exported while its __init__ imported each module
EXPORTED = {
    "core": ("DEFAULT_CFG", "DomainError", "NonConvergence", "PoleError",
             "PrecisionConfig", "PrecisionError", "SeriesResult"),
    "kernels": ("hurwitz_zeta_em", "integrate_adaptive",
                "integrate_oscillatory", "sum_alternating_accelerated",
                "sum_oscillatory_ibp", "sum_trig_averaged"),
    "combinatorics": ("bell_complete", "bell_harmonic", "bell_partition_sum",
                      "binomial", "harmonic"),
    "gammafuncs": ("bourguet_log_gamma", "digamma", "digamma_log_integral",
                   "log_gamma", "polygamma"),
    "hurwitz": ("poisson_zeta", "zeta", "zeta_doubleprime0", "zeta_fourier",
                "zeta_fourier_pair", "zeta_hasse", "zeta_prime0",
                "zeta_srivastava_choi"),
    "constants": ("adamchik_reflection", "bell_series_gamma", "briggs_gamma",
                  "coffey_difference_integral", "coffey_integrand",
                  "digamma_hasse_series", "em_gamma", "gamma1_prime",
                  "gamma1_rational", "hasse_gamma", "landau_gamma1_functional",
                  "laurent_oracle", "ramanujan_exp_sum", "stieltjes_gamma"),
    "fourier": ("deninger_closed", "deninger_f", "gamma1_fourier",
                "kolbig_check", "kummer_log_gamma", "landau_f_functional",
                "lerch_transform", "series_316", "series_325_family",
                "sondow_gamma", "wallis_alternating"),
}
PAIRS = [(m, n) for m, names in EXPORTED.items() for n in names]


@pytest.mark.parametrize("module,name", PAIRS)
def test_exported_name_is_its_modules_object(module, name):
    assert getattr(stieltjes, name) is getattr(
        import_module(f"stieltjes.{module}"), name)
    assert name in dir(stieltjes)
    assert name in stieltjes.__all__


def test_from_import_and_submodule_attributes():
    from stieltjes import PoleError, zeta
    from stieltjes import hurwitz
    assert zeta is hurwitz.zeta
    assert issubclass(PoleError, stieltjes.DomainError)
    for module in EXPORTED:
        assert getattr(stieltjes, module) is import_module(f"stieltjes.{module}")
    assert set(stieltjes.__all__) == {n for _, n in PAIRS}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stieltjes.no_such_name  # noqa: B018


def test_a_rebound_function_is_what_the_package_returns(monkeypatch):
    from stieltjes import gammafuncs

    def stand_in(x, cfg=None):
        return x

    monkeypatch.setattr(gammafuncs, "digamma", stand_in)
    assert stieltjes.digamma is stand_in


def test_importing_the_package_loads_no_module_and_no_mpmath():
    script = (
        "import json, sys\n"
        "import stieltjes\n"
        "from stieltjes import DomainError, __version__\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'mpmath' "
        "or m.startswith('stieltjes.'))))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(stieltjes.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []

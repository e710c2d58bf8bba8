"""Multiprecision Stieltjes constants, Hurwitz zeta and their identity catalog.

Importing the package loads none of its modules and no mpmath: each public
name below is looked up in its module on first use (PEP 562), so a process
pays only for the modules it runs.  The error types live here, so that code
which only reports them (the CLI's argument checks) imports no mpmath;
:mod:`stieltjes.core` re-exports them.
"""

from importlib import import_module

__version__ = "0.4.0"


class DomainError(ValueError):
    """Argument outside the domain of the requested operation."""


class PoleError(DomainError):
    """Evaluation requested at (or numerically indistinguishable from) a pole."""


class NonConvergence(ArithmeticError):
    """A series or quadrature failed to meet its tolerance within its budget."""


class PrecisionError(ArithmeticError):
    """Requested digits are unreachable within the configured term budget."""


# module -> the public names the package re-exports from it
_EXPORTS = {
    "core": ("DEFAULT_CFG", "PrecisionConfig", "SeriesResult"),
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["DomainError", "NonConvergence", "PoleError",
                  "PrecisionError", *_HOME])


def __getattr__(name):
    # looked up on every access, not cached here, so a rebound module
    # attribute is what the package returns
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})

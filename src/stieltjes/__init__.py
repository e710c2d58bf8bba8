"""Multiprecision Stieltjes constants, Hurwitz zeta and their identity catalog."""

__version__ = "0.4.0"

from .core import (DEFAULT_CFG, DomainError, NonConvergence, PoleError,
                   PrecisionConfig, PrecisionError, SeriesResult)
from .kernels import (hurwitz_zeta_em, integrate_adaptive,
                      integrate_oscillatory, sum_alternating_accelerated,
                      sum_oscillatory_ibp, sum_trig_averaged)
from .combinatorics import (bell_complete, bell_harmonic, bell_partition_sum,
                            binomial, harmonic)
from .gammafuncs import (bourguet_log_gamma, digamma, digamma_log_integral,
                         log_gamma, polygamma)
from .hurwitz import (poisson_zeta, zeta, zeta_doubleprime0, zeta_fourier,
                      zeta_fourier_pair, zeta_hasse, zeta_prime0,
                      zeta_srivastava_choi)
from .constants import (adamchik_reflection, bell_series_gamma, briggs_gamma,
                        coffey_difference_integral, coffey_integrand,
                        digamma_hasse_series, em_gamma, gamma1_prime,
                        gamma1_rational, hasse_gamma, landau_gamma1_functional,
                        laurent_oracle, ramanujan_exp_sum, stieltjes_gamma)
from .fourier import (deninger_closed, deninger_f, gamma1_fourier,
                      kolbig_check, kummer_log_gamma, landau_f_functional,
                      lerch_transform, series_316, series_325_family,
                      sondow_gamma, wallis_alternating)

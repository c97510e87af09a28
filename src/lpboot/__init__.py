"""Bootstrap inference for high-dimensional lp-statistics.

Estimates the distribution of lp-norms of scaled sums of high-dimensional
random vectors via Gaussian parametric and multiplier bootstraps, with
structured covariance estimation, hypothesis tests and confidence sets for
mean vectors, diagnostic probes, and a Monte Carlo experiment harness.
"""

from .bootstrap import (EmpiricalDistribution, critical_value,
                        empirical_quantile, gmb_draws, gpb_draws, ks_distance,
                        proxy_draws)
from .covariance import (CovDiagnostics, CovError, CovMatrix, band,
                         correlation_threshold, cov_diagnostics, cov_error,
                         cv_select_lambda, psd_project, sample_covariance,
                         threshold)
from .diagnostics import ProbeReport, comparison_ks, levy_concentration
from .harness import ExperimentConfig, parse_config, run_experiment
from .inference import (ConfidenceSet, EstimatorSpec, TestResult, TestSpec,
                        confidence_set, estimate_covariance, lp_ball_volume,
                        run_test, test_statistic)
from .lp import (LpDerivatives, LpExponent, lp_norm, lp_norm_rows,
                 mp_gradient, mp_higher_derivatives, smooth_max, smooth_norm)
from .sampling import (MarginalKind, RngSeed,
                       build_block_covariance, copula_covariance,
                       copula_sample, factorize_psd,
                       marginal_quantile, mvn_sample, normal_cdf)

__version__ = "0.1.0"

# the public functions and classes; the submodules the imports bind are not callable
__all__ = [name for name in dir() if not name.startswith("_") and callable(globals()[name])]

"""Structured covariance estimation on sparse truth.

Draws data whose population covariance is block-sparse, picks a correlation
threshold by cross-validation, projects back to the PSD cone, and compares
the entrywise errors of the naive and regularized estimates.
"""

import math

import numpy as np

from lpboot import (LpExponent, MarginalKind, RngSeed, build_block_covariance,
                    copula_covariance, copula_sample, correlation_threshold,
                    cov_diagnostics, cov_error, cv_select_lambda, psd_project,
                    sample_covariance)

n, d = 200, 120
truth_latent = build_block_covariance(d, 2, 0.8, RngSeed(3).child(0))
truth = copula_covariance(truth_latent, MarginalKind.UNIFORM_SYM)
X = copula_sample(truth_latent, MarginalKind.UNIFORM_SYM, n, RngSeed(3).child(1))

naive = sample_covariance(X)
grid = list(np.linspace(0.0, 1.0, 20))
lam, risks = cv_select_lambda(X, grid, 5, RngSeed(3).child(2))
regularized = psd_project(correlation_threshold(naive, lam))

print(f"n={n}, d={d}, pairwise-correlated blocks of size 2")
# CV scores a grid point exactly where the probe accepts its mask in every
# fold, or where it could still win after the failing masks are bounded,
# first by the PSD masks around them and then by their eigenvalues (16 of
# the 20 here); the rest of the risk list is NaN
scored = [r for r in risks if not math.isnan(r)]
print(f"CV-selected correlation threshold: {lam:.3f} "
      f"(risk {risks[grid.index(lam)]:.3f}; {len(scored)} of {len(grid)} grid points "
      f"scored exactly, risks {min(scored):.3f} to {max(scored):.3f})\n")

for p in (LpExponent.finite(1), LpExponent.finite(2), LpExponent.infinity()):
    e_naive = cov_error(naive, truth, p).delta_p[p]
    e_reg = cov_error(regularized, truth, p).delta_p[p]
    print(f"entrywise l{p} error: naive {e_naive:8.3f} -> thresholded {e_reg:8.3f}")

dn, dr = cov_diagnostics(naive), cov_diagnostics(regularized)
print(f"\neffective rank: naive {dn.effective_rank:.1f}, "
      f"thresholded {dr.effective_rank:.1f} "
      f"(population: {cov_diagnostics(truth).effective_rank:.1f})")
print("\nThresholding zeroes the noise entries off the block structure, which")
print("is where most of the naive estimate's entrywise error lives.")

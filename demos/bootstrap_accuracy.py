"""How close is each bootstrap to the real sampling distribution?

Simulates the law of the lp-statistic ||n^{-1/2} sum X_i||_p under a sparse
block covariance with uniform marginals, then measures the KS distance of
each engine's draws to that simulated truth: the oracle that knows the true
covariance, the multiplier bootstrap, the naive plug-in, the
cross-validated thresholded plug-in, and the plug-ins thresholded at a
fixed level and banded (Bickel & Levina 2008).
"""

import numpy as np

from lpboot import ExperimentConfig, LpExponent, run_experiment

cfg = ExperimentConfig(
    kind="ks", n=120, d=100, mc_reps=30, B=500, truth_reps=800,
    block=2, cv_folds=4, cv_grid_size=10, seed=5,
    p_list=(LpExponent.finite(1), LpExponent.finite(2),
            LpExponent.log_dim(), LpExponent.infinity()),
    estimators=("proxy", "gmb", "naive", "corr_cv", "hard(0.1)", "band(1)"),
)
rows = run_experiment(cfg)

acc = {}
for row in rows:
    _, p, est, ks = row.split(",")
    acc.setdefault((est, p), []).append(float(ks))

print(f"median KS to the simulated truth over {cfg.mc_reps} replicates "
      f"(n={cfg.n}, d={cfg.d}):\n")
print(f"{'engine':>10} " + " ".join(f"{p}" for p in ("p=1  ", "p=2  ", "p=logd", "p=inf")))
for est in cfg.estimators:
    meds = [np.median(acc[(est, p.label)]) for p in cfg.p_list]
    print(f"{est:>10} " + " ".join(f"{m:.3f}" for m in meds))

print("\nThe oracle (proxy) sits closest to the simulated truth at every p.")
print("Both thresholded plug-ins, cross-validated (corr_cv) and at a fixed")
print("level (hard(0.1)), beat the naive plug-in and the multiplier bootstrap")
print("at every p. Banding is worst at every p, and by far at p=inf: the")
print("latent blocks sit at permuted coordinates, so a band around the")
print("diagonal drops the true covariances and keeps noise.")

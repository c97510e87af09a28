"""One-shot bootstrap test of a high-dimensional mean, plus the dual
confidence set.

Generates n=150 observations in d=60 dimensions with a small mean shift on
the first five coordinates, then tests H0: mu = 0 under the sup-norm and
the l1-norm and prints the resulting lp-ball confidence sets.
"""

import math

import numpy as np

from lpboot import (ConfidenceSet, EstimatorSpec, LpExponent, RngSeed,
                    TestSpec, run_test)

n, d = 150, 60
rng = RngSeed(2024).generator()
mu = np.zeros(d)
mu[:5] = 0.35
X = rng.standard_normal((n, d)) + mu

print(f"data: n={n}, d={d}, true mean shift 0.35 on 5 of {d} coordinates\n")
for p in (LpExponent.infinity(), LpExponent.finite(1)):
    spec = TestSpec(M=np.eye(d), m0=np.zeros(d), p=p, alpha=0.05,
                    estimator=EstimatorSpec("corr_cv", cv_folds=4,
                                            cv_grid=tuple(np.linspace(0, 1, 12))),
                    B=1000, seed=RngSeed(7))
    res = run_test(X, spec)
    print(f"p={p}: statistic {res.statistic:.3f} vs critical value "
          f"{res.critical_value:.3f} -> {'REJECT' if res.reject else 'accept'} "
          f"(p-value {res.p_value:.4f})")
    # the dual set of the same test: the ball confidence_set(X, p, 0.05,
    # spec.estimator, 1000, RngSeed(7)) returns, without fitting and drawing
    # again (that set also decides points within rounding of its boundary by
    # the test's own statistic)
    cs = ConfidenceSet(X.mean(axis=0), res.critical_value / math.sqrt(n), p)
    print(f"      95% l{p}-ball: radius {cs.radius:.4f}; "
          f"contains 0: {cs.contains(np.zeros(d))}, "
          f"contains truth: {cs.contains(mu)}\n")

print("A sparse shift is easiest to see in the sup-norm; the l1 test dilutes")
print("it across all coordinates.")

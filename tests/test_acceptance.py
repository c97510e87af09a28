"""Acceptance gate: twelve end-to-end criteria for the bootstrap suite.

Each test prints one `criterion N (<name>): PASS|FAIL` line (run with -s to
see them live; pytest shows them in captured output otherwise).  The Monte
Carlo experiments run at desk scale (n = d = 200) with fixed seeds.
"""

import math

import numpy as np
import pytest

from lpboot.bootstrap import (empirical_quantile, gmb_draws, gpb_draws,
                              ks_distance, proxy_draws)
from lpboot.covariance import CovMatrix
from lpboot.harness import ExperimentConfig, run_experiment
from lpboot.inference import lp_ball_volume
from lpboot.lp import (LpExponent, lp_norm, mp_gradient,
                       mp_higher_derivatives, smooth_max, smooth_norm)
from lpboot.sampling import MarginalKind, RngSeed

P4 = (LpExponent.finite(1), LpExponent.finite(2),
      LpExponent.log_dim(), LpExponent.infinity())

DESK = dict(n=200, d=200, mc_reps=500, B=500, cv_folds=4, cv_grid_size=12)


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def coverage_table(rows) -> dict:
    """(p_label, estimator) -> coverage from per-replicate indicator rows."""
    acc: dict = {}
    for row in rows:
        _, p, est, covered = row.split(",")
        acc.setdefault((p, est), []).append(int(covered))
    return {k: float(np.mean(v)) for k, v in acc.items()}


@pytest.fixture(scope="module")
def light_coverage():
    cfg = ExperimentConfig(kind="coverage", marginal=MarginalKind.UNIFORM_SYM,
                           p_list=P4, estimators=("proxy", "corr_cv"),
                           seed=17, **DESK)
    return coverage_table(run_experiment(cfg))


@pytest.fixture(scope="module")
def heavy_coverage():
    cfg = ExperimentConfig(kind="coverage", marginal=MarginalKind.STUDENT_T4,
                           p_list=(LpExponent.finite(1), LpExponent.infinity()),
                           estimators=("corr_cv",), seed=13, **DESK)
    return coverage_table(run_experiment(cfg))


@pytest.fixture(scope="module")
def ks_medians():
    cfg = ExperimentConfig(kind="ks", marginal=MarginalKind.UNIFORM_SYM,
                           p_list=P4, estimators=("proxy", "gmb", "naive", "corr_cv"),
                           n=200, d=200, mc_reps=200, B=500, truth_reps=2000,
                           cv_folds=4, cv_grid_size=12, seed=29)
    acc: dict = {}
    for row in run_experiment(cfg):
        _, p, est, ks = row.split(",")
        acc.setdefault((p, est), []).append(float(ks))
    return {k: float(np.median(v)) for k, v in acc.items()}


def power_at_mid(kind: str, span: float, seed: int) -> dict:
    grid = tuple(np.linspace(0.0, span, 13))
    cfg = ExperimentConfig(kind=kind, marginal=MarginalKind.UNIFORM_SYM,
                           p_list=(LpExponent.finite(1), LpExponent.infinity()),
                           delta_grid=grid, seed=seed, **DESK)
    mid = grid[6]
    out = {}
    for row in run_experiment(cfg):
        delta, p, power, _ = row.split(",")
        if float(delta) == mid:
            out[p] = float(power)
    return out


def test_criterion_1_size_control(light_coverage):
    sizes = {p.label: 1.0 - light_coverage[(p.label, "corr_cv")] for p in P4}
    ok = all(abs(s - 0.05) <= 0.03 for s in sizes.values())
    report(1, "size control", ok,
           "H0 rejection rates " + ", ".join(f"p={k}: {v:.3f}" for k, v in sizes.items()))


def test_criterion_2_light_tail_coverage(light_coverage):
    devs = {(p.label, est): light_coverage[(p.label, est)]
            for p in P4 for est in ("proxy", "corr_cv")}
    ok = all(abs(c - 0.95) <= 0.03 for c in devs.values())
    report(2, "light-tail coverage", ok,
           ", ".join(f"{est}/p={p}: {c:.3f}" for (p, est), c in devs.items()))


def test_criterion_3_heavy_tail_ordering(heavy_coverage):
    dev1 = abs(heavy_coverage[("1", "corr_cv")] - 0.95)
    devinf = abs(heavy_coverage[("inf", "corr_cv")] - 0.95)
    report(3, "heavy-tail degradation ordering", devinf > dev1,
           f"|cov-0.95| at p=inf {devinf:.4f} vs p=1 {dev1:.4f}")


def test_criterion_4_ks_ordering(ks_medians):
    ordered = all(ks_medians[(p, "corr_cv")] <= ks_medians[(p, "naive")]
                  for p in ("1", "2"))
    spreads = {}
    for p in ("logd", "inf"):
        vals = [ks_medians[(p, est)] for est in ("proxy", "gmb", "naive", "corr_cv")]
        spreads[p] = max(vals) - min(vals)
    tight = all(s < 0.05 for s in spreads.values())
    report(4, "KS ordering", ordered and tight,
           f"medians p=1 cv/naive {ks_medians[('1', 'corr_cv')]:.3f}/"
           f"{ks_medians[('1', 'naive')]:.3f}, p=2 {ks_medians[('2', 'corr_cv')]:.3f}/"
           f"{ks_medians[('2', 'naive')]:.3f}; engine spreads "
           + ", ".join(f"p={k}: {v:.3f}" for k, v in spreads.items()))


def test_criterion_5_power_orderings():
    n, d = DESK["n"], DESK["d"]
    dense = power_at_mid("power-dense", 9.0 / math.sqrt(n * d), seed=11)
    sparse = power_at_mid("power-sparse", 3.0 * math.sqrt(math.log(d) / n), seed=11)
    ok_dense = dense["1"] >= dense["inf"] + 0.1
    ok_sparse = sparse["inf"] >= sparse["1"] + 0.1
    report(5, "power orderings", ok_dense and ok_sparse,
           f"dense mid-grid p=1 {dense['1']:.3f} vs p=inf {dense['inf']:.3f}; "
           f"sparse mid-grid p=inf {sparse['inf']:.3f} vs p=1 {sparse['1']:.3f}")


def test_criterion_6_quantile_scaling():
    dims = (50, 100, 200, 400)
    ratios2, ratiosinf = [], []
    for i, d in enumerate(dims):
        S = CovMatrix(np.eye(d))
        d2 = gpb_draws(S, LpExponent.finite(2), 20_000, RngSeed(41).child(i, 0))
        dinf = gpb_draws(S, LpExponent.infinity(), 20_000, RngSeed(41).child(i, 1))
        ratios2.append(empirical_quantile(d2, 0.95) / (math.sqrt(2.0) * math.sqrt(d)))
        ratiosinf.append(empirical_quantile(dinf, 0.95) / math.sqrt(math.log(d)))
    ok = (max(ratios2) <= 2 * min(ratios2)) and (max(ratiosinf) <= 2 * min(ratiosinf))
    report(6, "quantile scaling band", ok,
           f"p=2 ratios {['%.3f' % r for r in ratios2]}, "
           f"p=inf ratios {['%.3f' % r for r in ratiosinf]}")


def test_criterion_7_volume_exactness():
    exact = (abs(lp_ball_volume(2, 2.0, 1.0).volume - math.pi) <= 1e-12
             and all(lp_ball_volume(1, p, r).volume == pytest.approx(2 * r, rel=1e-12)
                     for p in (1.0, 2.5, math.inf) for r in (0.5, 3.0))
             and abs(lp_ball_volume(3, 1.0, 1.0).volume - 4.0 / 3.0) <= 1e-12)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(400_000, 3))
    inside = (np.abs(pts) ** 3).sum(axis=1) <= 1.0
    mc = inside.mean() * 8.0
    closed = lp_ball_volume(3, 3.0, 1.0).volume
    mc_ok = abs(mc - closed) <= 0.02 * closed
    report(7, "volume formula exactness", exact and mc_ok,
           f"closed forms exact; MC {mc:.4f} vs {closed:.4f}")


def test_criterion_8_derivative_suite():
    rng = np.random.default_rng(8)
    dim = 6
    worst_fd, worst_grad = 0.0, 0.0
    bounds_ok = True
    for _ in range(100):
        q = float(rng.choice([2.0, 3.0, 4.0, 6.0]))
        x = rng.uniform(0.5, 2.0, size=dim)
        m = float((x ** q).sum() ** (1.0 / q))
        grad = mp_gradient(x, q)
        der = mp_higher_derivatives(x, q)
        h = 1e-6
        # gradient against central differences of the norm
        for k in range(dim):
            e = np.zeros(dim); e[k] = h
            fd = (((x + e) ** q).sum() ** (1 / q) - ((x - e) ** q).sum() ** (1 / q)) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - grad[k]) / abs(fd))
        # Hessian against central differences of the verified gradient
        for k in range(dim):
            e = np.zeros(dim); e[k] = h
            fd = (mp_gradient(x + e, q) - mp_gradient(x - e, q)) / (2 * h)
            worst_fd = max(worst_fd, np.abs((fd - der.second[:, k])
                                            / np.maximum(np.abs(fd), 1e-8)).max())
        # third partials against central differences of the verified Hessian
        for k in range(dim):
            e = np.zeros(dim); e[k] = h
            fd = (mp_higher_derivatives(x + e, q).second
                  - mp_higher_derivatives(x - e, q).second) / (2 * h)
            worst_fd = max(worst_fd, abs(fd[k, k] - der.third_diag3[k])
                           / max(abs(fd[k, k]), 1e-8))
            for l in range(dim):
                if l != k:
                    worst_fd = max(worst_fd, abs(fd[l, l] - der.third_kkl[l, k])
                                   / max(abs(fd[l, l]), 1e-8))
                    mm = (l + 1) % dim if (l + 1) % dim != k else (l + 2) % dim
                    if mm != l and mm != k:
                        worst_fd = max(worst_fd, abs(fd[l, mm] - der.third_klm(l, mm, k))
                                       / max(abs(fd[l, mm]), 1e-8))
        conj = q / (q - 1.0)
        worst_grad = max(worst_grad, abs((grad ** conj).sum() ** (1 / conj) - 1.0))
        off = np.abs(der.second[~np.eye(dim, dtype=bool)])
        bounds_ok &= (off ** conj).sum() ** (1 / conj) <= (q - 1) / m + 1e-9
        diag = np.abs(np.diag(der.second))
        bounds_ok &= (diag ** conj).sum() ** (1 / conj) <= \
            2 * (q - 1) * (dim ** (1 / q) + 1) / m + 1e-9
        trip = np.abs([der.third_klm(i, j, k) for i in range(dim)
                       for j in range(dim) for k in range(dim)
                       if len({i, j, k}) == 3])
        bounds_ok &= (trip ** conj).sum() ** (1 / conj) <= \
            (2 * q - 1) * (q - 1) / m ** 2 + 1e-9
        kkl = np.abs(der.third_kkl[~np.eye(dim, dtype=bool)])
        bounds_ok &= (kkl ** conj).sum() ** (1 / conj) <= \
            (2 * (q - 1) ** 2 * dim ** (1 / q) + 2 * (2 * q - 1) * (q - 1)) / m ** 2 + 1e-9
        if q >= 3.0:
            pure = np.abs(der.third_diag3)
            bounds_ok &= (pure ** conj).sum() ** (1 / conj) <= \
                (4 * (q - 1) * (q - 2) * dim ** (2 / q) + 12 * (q - 1)
                 + 4 * (2 * q - 1) * (q - 1)) / m ** 2 + 1e-9
    ok = worst_fd <= 1e-5 and worst_grad <= 1e-10 and bounds_ok
    report(8, "derivative oracle suite", ok,
           f"max FD rel err {worst_fd:.2e}, conjugate-norm gap {worst_grad:.2e}, "
           f"stability bounds {'hold' if bounds_ok else 'violated'}")


def test_criterion_9_smooth_sandwiches():
    rng = np.random.default_rng(9)
    ok_norm = ok_max = True
    for _ in range(10_000):
        d = int(rng.integers(3, 40))
        x = rng.normal(size=d) * rng.uniform(0.1, 10.0)
        p = int(rng.choice([2, 4, 6, 8]))
        eta = float(rng.uniform(0.01, 2.0))
        norm_p = lp_norm(x, LpExponent.finite(p))
        val = smooth_norm(x, p, eta)
        ok_norm &= norm_p <= val <= norm_p + eta + 1e-9 * max(norm_p, 1.0)
        beta = float(rng.uniform(0.5, 50.0))
        sval = smooth_max(x, beta)
        slack = math.e * math.log(2 * d) / beta
        hi = lp_norm(x, LpExponent.log_dim()) + slack
        lo = float(np.abs(x).max())
        ok_max &= lo - 1e-9 <= sval <= hi + 1e-9 * max(hi, 1.0)
    report(9, "smooth-approximation sandwiches", ok_norm and ok_max,
           f"norm surrogate {'ok' if ok_norm else 'violated'}, "
           f"max surrogate {'ok' if ok_max else 'violated'} on 1e4 instances each")


def test_criterion_10_engine_equivalence():
    worst = 0.0
    for i in range(5):
        rng = RngSeed(10).child(i)
        n = int(rng.child(0).generator().integers(80, 200))
        d = int(rng.child(1).generator().integers(20, 120))
        X = rng.child(2).generator().standard_normal((n, d))
        p = P4[i % 4]
        from lpboot.covariance import sample_covariance
        a = gmb_draws(X, p, 10_000, rng.child(3))
        b = gpb_draws(sample_covariance(X), p, 10_000, rng.child(4))
        worst = max(worst, ks_distance(a, b))
    report(10, "bootstrap engine equivalence", worst <= 0.03,
           f"max GMB-vs-naive-GPB KS over 5 datasets: {worst:.4f}")


def test_criterion_11_quantile_bounds():
    ok = True
    details = []
    for sigma in (1.0, 2.0):
        for d in (50, 200):
            S = CovMatrix(sigma ** 2 * np.eye(d))
            for p in P4:
                ref = proxy_draws(S, p, 100_000, RngSeed(110).child(d, 0)).samples
                E, sd = float(ref.mean()), float(ref.std())
                D = proxy_draws(S, p, 2000, RngSeed(110).child(d, 1))
                for alpha in (0.05, 0.1):
                    q = empirical_quantile(D, 1.0 - alpha)
                    lo, hi = E - sd, E + sd / math.sqrt(alpha)
                    if not lo <= q <= hi:
                        ok = False
                        details.append(f"sigma={sigma},d={d},p={p.label},a={alpha}")
    report(11, "quantile bounds", ok,
           "all isotropic instances inside [E-sd, E+sd/sqrt(alpha)]"
           if ok else "violations: " + "; ".join(details))


def test_criterion_12_diagnostic_probes():
    cfg = ExperimentConfig(kind="probe", seed=120, **DESK)
    rows = run_experiment(cfg)
    failed = [r.split(",")[1] for r in rows if r.split(",")[-1] != "1"]
    report(12, "diagnostic probes", not failed,
           f"{len(rows)} probes at C=10" + ("" if not failed
                                            else ", failing: " + "; ".join(failed)))

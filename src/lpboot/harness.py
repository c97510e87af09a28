"""Monte Carlo experiment drivers: distribution-estimation accuracy (KS),
confidence-set coverage, power curves, and diagnostic probes, with flat
key=value configuration and deterministic CSV emission.

All randomness flows through per-replicate sub-streams keyed by replicate
index, so output files are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import (MAX_DRAWS, EmpiricalDistribution, _multiplier_rows,
                        _mvn_rows, _norm_draws, critical_value, ks_distance)
from .covariance import CovMatrix
from .diagnostics import comparison_ks, levy_concentration
from .inference import EstimatorSpec, estimate_covariance
from .lp import LpExponent, lp_norm
from .sampling import (MarginalKind, RngSeed, build_block_covariance,
                       copula_covariance, copula_sample)

KINDS = ("ks", "coverage", "power-dense", "power-sparse", "probe")
# engine -> sub-stream of the replicate seed its draws use
ENGINE_STREAMS = {"proxy": 1, "gmb": 2, "naive": 3, "corr_cv": 5}
ENGINES = tuple(ENGINE_STREAMS)


def default_p_list() -> tuple:
    return (LpExponent.finite(1), LpExponent.finite(2),
            LpExponent.log_dim(), LpExponent.infinity())


def _default_block(d: int) -> int:
    if d % 100 == 0:
        return max(d // 100, 1)
    return 2 if d % 2 == 0 else 1


@dataclass
class ExperimentConfig:
    kind: str
    n: int = 200
    d: int = 200
    marginal: MarginalKind = MarginalKind.UNIFORM_SYM
    p_list: tuple = field(default_factory=default_p_list)
    estimators: tuple = ENGINES
    mc_reps: int = 500
    B: int = 500
    truth_reps: int = 2000
    alpha: float = 0.05
    delta_grid: tuple = ()
    seed: int = 0
    output_path: str = ""
    block: int = 0          # 0 -> d/100 when divisible, else smallest even choice
    decay: float = 0.8
    standardize: bool = True
    cv_folds: int = 10
    cv_grid_size: int = 40
    threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        unknown = [e for e in self.estimators if e not in ENGINES]
        if unknown:
            raise ValueError(f"unknown estimators {', '.join(map(repr, unknown))}; "
                             f"expected some of {', '.join(ENGINES)}")
        if self.block == 0:
            self.block = _default_block(self.d)
        if self.d % self.block != 0:
            raise ValueError("block size must divide d")
        if self.kind.startswith("power") and not self.delta_grid:
            self.delta_grid = tuple(default_delta_grid(self.kind, self.n, self.d))
        for name in ("n", "d", "mc_reps", "B", "truth_reps", "cv_folds", "cv_grid_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.B > MAX_DRAWS:
            raise ValueError(f"B must be at most {MAX_DRAWS}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def rng(self) -> RngSeed:
        return RngSeed(self.seed)

    @property
    def cv_grid(self) -> list:
        return list(np.linspace(0.0, 1.0, self.cv_grid_size))


def default_delta_grid(kind: str, n: int, d: int, points: int = 13) -> list:
    """Signal grids: dense alternatives scale as 1/sqrt(nd), sparse ones as
    sqrt(log d / n)."""
    if kind == "power-dense":
        top = 6.0 / math.sqrt(n * d)
    elif kind == "power-sparse":
        top = 6.0 * math.sqrt(math.log(d) / n)
    else:
        raise ValueError(f"no delta grid for kind {kind!r}")
    return list(np.linspace(0.0, top, points))


def sparse_direction(d: int) -> np.ndarray:
    """Unit-entry alternative with 2*ceil(sqrt(log d)/2) nonzero coordinates."""
    k = 2 * math.ceil(math.sqrt(math.log(d)) / 2.0)
    v = np.zeros(d)
    v[:k] = 1.0
    return v


# ---------------------------------------------------------------------------
# configuration file format: flat key=value lines, '#' comments


def parse_config(path: str) -> ExperimentConfig:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return config_from_dict(values)


def config_from_dict(values: dict) -> ExperimentConfig:
    values = dict(values)
    if "kind" not in values:
        raise ValueError("config is missing the required key 'kind'")
    kw = {"kind": values.pop("kind")}
    converters = {
        "n": int, "d": int, "mc_reps": int, "B": int, "truth_reps": int,
        "seed": int, "block": int, "cv_folds": int, "cv_grid_size": int,
        "threads": int, "alpha": float, "decay": float,
        "output_path": str,
    }
    try:
        for key, conv in converters.items():
            if key in values:
                kw[key] = conv(values.pop(key))
        if "marginal" in values:
            kw["marginal"] = MarginalKind.parse(values.pop("marginal"))
        if "p_list" in values:
            kw["p_list"] = tuple(LpExponent.parse(t)
                                 for t in values.pop("p_list").split(",") if t.strip())
        if "estimators" in values:
            kw["estimators"] = tuple(t.strip() for t in values.pop("estimators").split(",")
                                     if t.strip())
        if "delta_grid" in values:
            kw["delta_grid"] = tuple(float(t)
                                     for t in values.pop("delta_grid").split(",") if t.strip())
        if "standardize" in values:
            kw["standardize"] = values.pop("standardize").strip().lower() in ("1", "true", "yes")
    except ValueError as exc:
        raise ValueError(f"bad config value: {exc}") from exc
    if values:
        raise ValueError(f"unknown config keys: {', '.join(sorted(values))}")
    return ExperimentConfig(**kw)


def paper_scale_preset(kind: str) -> ExperimentConfig:
    """Full-size configuration (hours of compute; not part of acceptance)."""
    return ExperimentConfig(kind=kind, n=200, d=1000, mc_reps=1000, B=1000,
                            truth_reps=5000)


# ---------------------------------------------------------------------------
# shared machinery


def _engine_draws(name: str, X: np.ndarray, Sigma_true: CovMatrix,
                  cfg: ExperimentConfig, rep_seed: RngSeed) -> dict:
    """Bootstrap distributions for all p under one engine, drawn on the
    engine's own sub-stream of rep_seed (ENGINE_STREAMS) so streams stay
    independent across engines; corr_cv's folds use sub-stream 4."""
    if name not in ENGINE_STREAMS:
        raise ValueError(f"unknown engine {name!r}")
    if name == "proxy":
        rows = _mvn_rows(Sigma_true)
    elif name == "gmb":
        rows = _multiplier_rows(X)
    else:
        spec = EstimatorSpec(name, cv_folds=cfg.cv_folds, cv_grid=tuple(cfg.cv_grid))
        rows = _mvn_rows(estimate_covariance(X, spec, rep_seed.child(4)))
    draws = _norm_draws(rows, cfg.p_list, cfg.B, rep_seed.child(ENGINE_STREAMS[name]), cfg.d)
    return {p: EmpiricalDistribution(v, {"engine": name, "p": p.label}) for p, v in draws.items()}


def _statistics(X: np.ndarray, p_list, shift: np.ndarray | None = None) -> dict:
    s = X.sum(axis=0) / math.sqrt(X.shape[0])
    if shift is not None:
        s = s + shift
    return {p: lp_norm(s, p, d_context=X.shape[1]) for p in p_list}


def _truth_distributions(cfg: ExperimentConfig, Sigma: CovMatrix) -> dict:
    """Law of the scaled-sum norm under the copula model, one statistic per
    independent dataset."""
    stats = {p: np.empty(cfg.truth_reps) for p in cfg.p_list}
    for r in range(cfg.truth_reps):
        X = copula_sample(Sigma, cfg.marginal, cfg.n, cfg.rng.child(1, r),
                          standardize=cfg.standardize)
        for p, v in _statistics(X, cfg.p_list).items():
            stats[p][r] = v
    return {p: EmpiricalDistribution(v, {"engine": "truth", "p": p.label})
            for p, v in stats.items()}


def _run_indexed(worker, count: int, threads: int) -> list:
    if threads <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(count)))


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# ---------------------------------------------------------------------------
# experiment drivers; each returns the emitted rows (list of strings)


def run_ks_experiment(cfg: ExperimentConfig) -> list:
    """Distance between each engine's bootstrap law and the simulated truth."""
    if cfg.kind != "ks":
        raise ValueError("config kind must be 'ks'")
    Sigma = build_block_covariance(cfg.d, cfg.block, cfg.decay, cfg.rng.child(0))
    # the oracle engine needs the covariance of the transformed data, not
    # the latent Gaussian one
    Sigma_X = copula_covariance(Sigma, cfg.marginal, cfg.standardize)
    truth = _truth_distributions(cfg, Sigma)

    def worker(rep: int) -> list:
        rep_seed = cfg.rng.child(2, rep)
        X = copula_sample(Sigma, cfg.marginal, cfg.n, rep_seed.child(0),
                          standardize=cfg.standardize)
        rows = []
        for est in cfg.estimators:
            draws = _engine_draws(est, X, Sigma_X, cfg, rep_seed)
            for p in cfg.p_list:
                ks = ks_distance(truth[p], draws[p])
                rows.append(f"{rep},{p.label},{est},{ks:.17g}")
        return rows

    per_rep = _run_indexed(worker, cfg.mc_reps, cfg.threads)
    rows = [r for chunk in per_rep for r in chunk]
    if cfg.output_path:
        _write_csv(cfg.output_path, "rep,p,estimator,ks", rows)
    return rows


def run_coverage_experiment(cfg: ExperimentConfig) -> list:
    """Coverage of the simultaneous (1-alpha) confidence set under the null;
    per-replicate indicators plus mean/standard-error aggregates."""
    if cfg.kind != "coverage":
        raise ValueError("config kind must be 'coverage'")
    Sigma = build_block_covariance(cfg.d, cfg.block, cfg.decay, cfg.rng.child(0))
    Sigma_X = copula_covariance(Sigma, cfg.marginal, cfg.standardize)

    def worker(rep: int) -> list:
        rep_seed = cfg.rng.child(2, rep)
        X = copula_sample(Sigma, cfg.marginal, cfg.n, rep_seed.child(0),
                          standardize=cfg.standardize)
        stats = _statistics(X, cfg.p_list)
        rows = []
        for est in cfg.estimators:
            draws = _engine_draws(est, X, Sigma_X, cfg, rep_seed)
            for p in cfg.p_list:
                q = critical_value(draws[p], cfg.alpha)
                covered = int(stats[p] <= q)
                rows.append(f"{rep},{p.label},{est},{covered}")
        return rows

    per_rep = _run_indexed(worker, cfg.mc_reps, cfg.threads)
    rows = [r for chunk in per_rep for r in chunk]
    summary = summarize_coverage(rows)
    if cfg.output_path:
        _write_csv(cfg.output_path, "rep,p,estimator,covered", rows)
        _write_csv(_summary_path(cfg.output_path),
                   "p,estimator,coverage,se,reps", summary)
    return rows


def _summary_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.summary{ext or '.csv'}"


def summarize_coverage(rows) -> list:
    """Aggregate per-replicate indicators into coverage and binomial SE."""
    acc: dict = {}
    order = []
    for row in rows:
        _, p, est, covered = row.split(",")
        key = (p, est)
        if key not in acc:
            acc[key] = [0, 0]
            order.append(key)
        acc[key][0] += int(covered)
        acc[key][1] += 1
    out = []
    for p, est in order:
        hits, reps = acc[(p, est)]
        cov = hits / reps
        se = math.sqrt(cov * (1.0 - cov) / reps)
        out.append(f"{p},{est},{cov:.17g},{se:.17g},{reps}")
    return out


def run_power_experiment(cfg: ExperimentConfig) -> list:
    """Rejection frequency against mean shifts delta * v.

    The critical value uses the cross-validated thresholded estimate; a mean
    shift leaves the centered sample covariance (hence the critical value)
    unchanged, so each replicate computes it once and reuses it across the
    whole delta grid.
    """
    if cfg.kind not in ("power-dense", "power-sparse"):
        raise ValueError("config kind must be power-dense or power-sparse")
    Sigma = build_block_covariance(cfg.d, cfg.block, cfg.decay, cfg.rng.child(0))
    v = np.ones(cfg.d) if cfg.kind == "power-dense" else sparse_direction(cfg.d)
    deltas = list(cfg.delta_grid)
    sqrt_n = math.sqrt(cfg.n)

    def worker(rep: int) -> np.ndarray:
        rep_seed = cfg.rng.child(2, rep)
        X = copula_sample(Sigma, cfg.marginal, cfg.n, rep_seed.child(0),
                          standardize=cfg.standardize)
        draws = _engine_draws("corr_cv", X, None, cfg, rep_seed)
        crit = {p: critical_value(draws[p], cfg.alpha) for p in cfg.p_list}
        s0 = X.sum(axis=0) / sqrt_n
        reject = np.empty((len(deltas), len(cfg.p_list)), dtype=bool)
        for i, delta in enumerate(deltas):
            s = s0 + sqrt_n * delta * v
            for j, p in enumerate(cfg.p_list):
                reject[i, j] = lp_norm(s, p, d_context=cfg.d) >= crit[p]
        return reject

    per_rep = _run_indexed(worker, cfg.mc_reps, cfg.threads)
    stack = np.stack(per_rep)  # reps x deltas x p
    rows = []
    for i, delta in enumerate(deltas):
        for j, p in enumerate(cfg.p_list):
            pw = float(stack[:, i, j].mean())
            se = math.sqrt(pw * (1.0 - pw) / cfg.mc_reps)
            rows.append(f"{delta:.17g},{p.label},{pw:.17g},{se:.17g}")
    if cfg.output_path:
        _write_csv(cfg.output_path, "delta,p,power,mc_se", rows)
    return rows


def run_probe_experiment(cfg: ExperimentConfig) -> list:
    """Concentration and comparison probes on identity-covariance grids."""
    if cfg.kind != "probe":
        raise ValueError("config kind must be 'probe'")
    n_mc = max(cfg.truth_reps, 1000)
    rows = []
    idx = 0
    for d in (50, cfg.d):
        eye = CovMatrix(np.eye(d), psd_certified=True, provenance="identity")
        for p in (LpExponent.finite(1), LpExponent.finite(2), LpExponent.finite(4)):
            for eps in (0.05, 0.1):
                rep = levy_concentration(eye, p, eps, n_mc, cfg.rng.child(3, idx))
                rows.append(rep.csv_row(f"levy:d={d}:p={p.label}:eps={eps:g}"))
                idx += 1
    eye = CovMatrix(np.eye(cfg.d), psd_certified=True, provenance="identity")
    for c in (1.0, 1.1, 1.5, 2.0):
        other = CovMatrix(c * np.eye(cfg.d), psd_certified=True, provenance="scaled")
        for p in cfg.p_list:
            rep = comparison_ks(eye, other, p, n_mc, cfg.rng.child(4, idx))
            rows.append(rep.csv_row(f"comparison:d={cfg.d}:p={p.label}:c={c:g}"))
            idx += 1
    if cfg.output_path:
        _write_csv(cfg.output_path, "probe,instance,estimate,bound,C,n_mc,passed", rows)
    return rows


def run_experiment(cfg: ExperimentConfig) -> list:
    drivers = {
        "ks": run_ks_experiment,
        "coverage": run_coverage_experiment,
        "power-dense": run_power_experiment,
        "power-sparse": run_power_experiment,
        "probe": run_probe_experiment,
    }
    return drivers[cfg.kind](cfg)

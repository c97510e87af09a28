"""Monte Carlo experiment drivers: distribution-estimation accuracy (KS),
confidence-set coverage, power curves, and diagnostic probes, with flat
key=value configuration and deterministic CSV emission.

All randomness flows through per-replicate sub-streams keyed by replicate
index, so output files are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .bootstrap import (MAX_DRAWS, EmpiricalDistribution, _multiplier_rows,
                        _mvn_rows, _norm_draws, critical_value, ks_distance)
from .covariance import CovMatrix, _cv_split
from .diagnostics import ProbeReport, comparison_ks, levy_concentration
from .inference import EstimatorSpec, estimate_covariance
from .lp import LpExponent, lp_norm
from .parallel import _available_cores, hold, run_indexed
from .sampling import (MarginalKind, RngSeed, build_block_covariance,
                       copula_covariance, copula_sample)

ENGINES = ("proxy", "gmb", "naive", "corr_cv")


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
    cv_folds: int = 10
    cv_grid_size: int = 40
    threads: int = field(default_factory=_available_cores)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("n", "d", "mc_reps", "B", "truth_reps", "cv_folds", "cv_grid_size",
                     "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("p_list", "estimators"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        specs = [e if e in ("proxy", "gmb") else EstimatorSpec.parse(e) for e in self.estimators]
        if len(set(specs)) < len(specs):
            raise ValueError(f"estimators {', '.join(self.estimators)} name one estimator twice")
        if len(set(self.p_list)) < len(self.p_list):
            raise ValueError(f"p_list {', '.join(p.label for p in self.p_list)} "
                             "names one exponent twice")
        if self.block < 0:
            raise ValueError("block must be nonnegative")
        if self.block == 0:
            self.block = _default_block(self.d)
        if self.d % self.block != 0:
            raise ValueError("block size must divide d")
        if self.kind.startswith("power") and not self.delta_grid:
            self.delta_grid = tuple(default_delta_grid(self.kind, self.n, self.d))
        if not all(math.isfinite(delta) for delta in self.delta_grid):
            raise ValueError("delta_grid values must be finite")
        for p in self.p_list:
            p.resolve(self.d)
        if self.uses_cv:
            _cv_split(self.n)
        for name in ("B", "truth_reps"):
            if getattr(self, name) > MAX_DRAWS:
                raise ValueError(f"{name} must be at most {MAX_DRAWS}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def uses_cv(self) -> bool:
        """Power runs always cross-validate; ks and coverage runs when an
        estimator is corr_cv."""
        return self.kind.startswith("power") or self.kind != "probe" and any(
            e not in ("proxy", "gmb") and EstimatorSpec.parse(e).kind == "corr_cv"
            for e in self.estimators)

    @property
    def rng(self) -> RngSeed:
        return RngSeed(self.seed)

    @property
    def cv_grid(self) -> list:
        return list(np.linspace(0.0, 1.0, self.cv_grid_size))


def default_delta_grid(kind: str, n: int, d: int) -> list:
    """Signal grids of 13 points: dense alternatives scale as 1/sqrt(nd),
    sparse ones as sqrt(log d / n)."""
    if kind not in ("power-dense", "power-sparse"):
        raise ValueError(f"no delta grid for kind {kind!r}")
    try:
        if kind == "power-dense":
            top = 6.0 / math.sqrt(n * d)
        else:
            top = 6.0 * math.sqrt(math.log(d) / n)
    except OverflowError:
        raise ValueError("n and d too large for a float delta grid") from None
    return list(np.linspace(0.0, top, 13))


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


def _comma_list(parse):
    """Parser of a comma-separated list; empty items are skipped."""
    return lambda text: tuple(parse(t.strip()) for t in text.split(",") if t.strip())


# config key -> parser of its text; with "kind", one key per ExperimentConfig field
_PARSERS = {
    "n": int, "d": int, "mc_reps": int, "B": int, "truth_reps": int, "seed": int,
    "block": int, "cv_folds": int, "cv_grid_size": int, "threads": int, "alpha": float,
    "output_path": str, "marginal": MarginalKind.parse,
    "p_list": _comma_list(LpExponent.parse), "estimators": _comma_list(str),
    "delta_grid": _comma_list(float),
}


def config_from_dict(values: dict) -> ExperimentConfig:
    if "kind" not in values:
        raise ValueError("config is missing the required key 'kind'")
    unknown = sorted(set(values) - set(_PARSERS) - {"kind"})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    try:
        kw = {key: _PARSERS[key](text) for key, text in values.items() if key != "kind"}
    except ValueError as exc:
        raise ValueError(f"bad config value: {exc}") from exc
    return ExperimentConfig(kind=values["kind"], **kw)


def paper_scale_preset(kind: str) -> ExperimentConfig:
    """Full-size configuration (hours of compute; not part of acceptance)."""
    return ExperimentConfig(kind=kind, n=200, d=1000, mc_reps=1000, B=1000,
                            truth_reps=5000)


# ---------------------------------------------------------------------------
# shared machinery


def _engine_draws(name: str, X: np.ndarray, Sigma_true: CovMatrix,
                  cfg: ExperimentConfig, rep_seed: RngSeed) -> dict:
    """Bootstrap distributions for all p under one engine, a row source (proxy,
    gmb) or an EstimatorSpec label, drawn on a sub-stream of rep_seed that the
    parsed engine alone picks: proxy 1, gmb 2, naive 3, corr_cv 5 (its folds
    use 4), hard(lam) (6, *lam.as_integer_ratio()) and band(ell) (7, ell)."""
    if name == "proxy":
        rows, stream = _mvn_rows(Sigma_true), (1,)
    elif name == "gmb":
        rows, stream = _multiplier_rows(X), (2,)
    else:
        spec = replace(EstimatorSpec.parse(name), cv_folds=cfg.cv_folds, cv_grid=tuple(cfg.cv_grid))
        rows = _mvn_rows(estimate_covariance(X, spec, rep_seed.child(4)))
        stream = {"naive": (3,), "corr_cv": (5,), "hard": (6, *spec.lam.as_integer_ratio()),
                  "band": (7, spec.ell)}[spec.kind]
    draws = _norm_draws(rows, cfg.p_list, cfg.B, rep_seed.child(*stream), cfg.d)
    return {p: EmpiricalDistribution(v, {"engine": name, "p": p.label}) for p, v in draws.items()}


def _statistics(X: np.ndarray, p_list) -> dict:
    s = X.sum(axis=0) / math.sqrt(X.shape[0])
    return {p: lp_norm(s, p, d_context=X.shape[1]) for p in p_list}


def _truth_distributions(cfg: ExperimentConfig, Sigma: CovMatrix) -> dict:
    """Law of the scaled-sum norm under the copula model, one statistic per
    independent dataset; dataset r is drawn on sub-stream (1, r), on the
    pool."""
    stats = {p: np.empty(cfg.truth_reps) for p in cfg.p_list}

    def dataset(r: int) -> None:
        X = copula_sample(Sigma, cfg.marginal, cfg.n, cfg.rng.child(1, r))
        for p, v in _statistics(X, cfg.p_list).items():
            stats[p][r] = v

    Sigma.factor()  # as in _replicates
    # the datasets are not replicates, so they bypass the replicate pool's name
    run_indexed(dataset, cfg.truth_reps, cfg.threads)
    return {p: EmpiricalDistribution(v, {"engine": "truth", "p": p.label})
            for p, v in stats.items()}


def _run_indexed(worker, count: int, threads: int) -> list:
    """The replicate pool, under a name that CV's fold pool does not share."""
    return run_indexed(worker, count, threads)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _format(record: tuple) -> str:
    """One CSV row: floats to 17 significant digits, other values by str."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in record)


def _replicates(cfg: ExperimentConfig, Sigma: CovMatrix, body) -> list:
    """body(rep, X, rep_seed) for each of the mc_reps replicates, in replicate
    order; replicate rep draws its data X on sub-stream 0 of rep_seed."""
    def worker(rep: int):
        rep_seed = cfg.rng.child(2, rep)
        X = copula_sample(Sigma, cfg.marginal, cfg.n, rep_seed.child(0))
        return body(rep, X, rep_seed)

    Sigma.factor()  # fill the shared cache once, before the workers race for it
    return _run_indexed(worker, cfg.mc_reps, cfg.threads)


def _engine_records(cfg: ExperimentConfig, Sigma: CovMatrix, scorer) -> list:
    """(rep, p, engine, value) for each replicate, engine and p, where
    scorer(X) returns value(p, D) for the engine's bootstrap law D of the
    p-norm on the replicate's data X."""
    # the oracle engine needs the covariance of the transformed data, not
    # the latent Gaussian one
    Sigma_X = copula_covariance(Sigma, cfg.marginal)
    if "proxy" in cfg.estimators:
        Sigma_X.factor()  # as for Sigma in _replicates

    def body(rep: int, X: np.ndarray, rep_seed: RngSeed) -> list:
        value = scorer(X)
        records = []
        for est in cfg.estimators:
            draws = _engine_draws(est, X, Sigma_X, cfg, rep_seed)
            records.extend((rep, p.label, est, value(p, draws[p])) for p in cfg.p_list)
        return records

    return [r for chunk in _replicates(cfg, Sigma, body) for r in chunk]


# ---------------------------------------------------------------------------
# experiments; each returns its records, one typed tuple per CSV row


def _ks_records(cfg: ExperimentConfig, Sigma: CovMatrix) -> list:
    """Distance between each engine's bootstrap law and the simulated truth."""
    truth = _truth_distributions(cfg, Sigma)
    return _engine_records(cfg, Sigma, lambda X: lambda p, D: ks_distance(truth[p], D))


def _coverage_records(cfg: ExperimentConfig, Sigma: CovMatrix) -> list:
    """Whether the simultaneous (1-alpha) confidence set covers the null mean."""
    def scorer(X: np.ndarray):
        stats = _statistics(X, cfg.p_list)
        return lambda p, D: int(stats[p] <= critical_value(D, cfg.alpha))

    return _engine_records(cfg, Sigma, scorer)


def summarize_coverage(records) -> list:
    """Aggregate (rep, p, estimator, covered) records into (p, estimator,
    coverage, binomial se, reps) records, in order of first appearance."""
    acc: dict = {}
    for _, p, est, covered in records:
        counts = acc.setdefault((p, est), [0, 0])
        counts[0] += covered
        counts[1] += 1
    out = []
    for (p, est), (hits, reps) in acc.items():
        cov = hits / reps
        out.append((p, est, cov, math.sqrt(cov * (1.0 - cov) / reps), reps))
    return out


def _power_records(cfg: ExperimentConfig, Sigma: CovMatrix) -> list:
    """Rejection frequency against mean shifts delta * v.

    The critical value uses the cross-validated thresholded estimate; a mean
    shift leaves the centered sample covariance (hence the critical value)
    unchanged, so each replicate computes it once and reuses it across the
    whole delta grid.
    """
    v = np.ones(cfg.d) if cfg.kind == "power-dense" else sparse_direction(cfg.d)
    deltas = [float(delta) for delta in cfg.delta_grid]
    sqrt_n = math.sqrt(cfg.n)

    def body(rep: int, X: np.ndarray, rep_seed: RngSeed) -> np.ndarray:
        draws = _engine_draws("corr_cv", X, None, cfg, rep_seed)
        crit = {p: critical_value(draws[p], cfg.alpha) for p in cfg.p_list}
        s0 = X.sum(axis=0) / sqrt_n
        reject = np.empty((len(deltas), len(cfg.p_list)), dtype=bool)
        for i, delta in enumerate(deltas):
            s = s0 + sqrt_n * delta * v
            for j, p in enumerate(cfg.p_list):
                reject[i, j] = lp_norm(s, p, d_context=cfg.d) > crit[p]
        return reject

    power = np.stack(_replicates(cfg, Sigma, body)).mean(axis=0)  # deltas x p
    return [(delta, p.label, float(pw), math.sqrt(pw * (1.0 - pw) / cfg.mc_reps))
            for delta, row in zip(deltas, power) for p, pw in zip(cfg.p_list, row)]


def _probe_records(cfg: ExperimentConfig, Sigma: None) -> list:
    """Concentration and comparison probes on identity-covariance grids;
    the probe of row i draws on sub-stream i of its family's stream."""
    n_mc = max(cfg.truth_reps, 1000)
    records = []

    def add(instance: str, rep: ProbeReport) -> None:
        records.append((rep.name, instance, rep.estimate, rep.bound, rep.C, rep.n_mc,
                        int(rep.passed)))

    for d in (50, cfg.d):
        eye = CovMatrix(np.eye(d), provenance="identity")
        for p in (LpExponent.finite(1), LpExponent.finite(2), LpExponent.finite(4)):
            for eps in (0.05, 0.1):
                add(f"levy:d={d}:p={p.label}:eps={eps:g}",
                    levy_concentration(eye, p, eps, n_mc, cfg.rng.child(3, len(records))))
    eye = CovMatrix(np.eye(cfg.d), provenance="identity")
    for c in (1.0, 1.1, 1.5, 2.0):
        other = CovMatrix(c * np.eye(cfg.d), provenance="scaled")
        for p in cfg.p_list:
            add(f"comparison:d={cfg.d}:p={p.label}:c={c:g}",
                comparison_ks(eye, other, p, n_mc, cfg.rng.child(4, len(records))))
    return records


# kind -> (CSV header, experiment)
_EXPERIMENTS = {
    "ks": ("rep,p,estimator,ks", _ks_records),
    "coverage": ("rep,p,estimator,covered", _coverage_records),
    "power-dense": ("delta,p,power,mc_se", _power_records),
    "power-sparse": ("delta,p,power,mc_se", _power_records),
    "probe": ("probe,instance,estimate,bound,C,n_mc,passed", _probe_records),
}
KINDS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run the experiment cfg.kind names and return its CSV rows; with an
    output_path, also write them there (and, for coverage, the per-(p,
    estimator) summary next to it).

    A run that may start a pool, on its harness threads or in CV, holds
    lpboot's one pool throughout (lpboot.parallel says why). A serial run
    without CV starts no pool and keeps the BLAS threads it finds."""
    header, experiment = _EXPERIMENTS[cfg.kind]
    with hold(cfg.kind != "probe" and (cfg.threads > 1 or cfg.uses_cv)):
        Sigma = None if cfg.kind == "probe" else build_block_covariance(
            cfg.d, cfg.block, perm_seed=cfg.rng.child(0))
        records = experiment(cfg, Sigma)
    rows = [_format(r) for r in records]
    if cfg.output_path:
        _write_csv(cfg.output_path, header, rows)
        if cfg.kind == "coverage":
            root, ext = os.path.splitext(cfg.output_path)
            _write_csv(f"{root}.summary{ext or '.csv'}", "p,estimator,coverage,se,reps",
                       map(_format, summarize_coverage(records)))
    return rows

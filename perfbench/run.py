"""lpboot benchmark: one-shot bootstrap tests and a Monte Carlo KS run.

Run from the repository root (it imports lpboot from ``src/``):

    python3 perfbench/run.py --workload oneshot-cv --seed 0 --seconds 20 --trace 0

Workloads, each a closed loop with one caller:

* ``oneshot-cv``    sequential ``run_test`` calls (M = I, alpha = 0.05, B = 1000,
                    default ``corr_cv`` estimator) on n = d = 200 datasets from
                    the paper's block rank-one Gaussian-copula model, p rotating
                    over 1, 2, logd, inf.  Cross-validation dominates.
* ``oneshot-naive`` the same calls with the ``naive`` estimator, which bypasses
                    cross-validation and leaves sampling, draws and norms.
* ``mc-ks``         one ``run_experiment`` call of kind ``ks`` (four engines, four
                    exponents, B = 500, 2000 truth datasets, 4-fold x 12-point CV,
                    two harness threads, BLAS threading left at its defaults)
                    with max(40, 4 x seconds) replicates; an op is one replicate.

One-shot runs go on until the summed op latency reaches ``--seconds`` and at
least enough ops ran to put 10 samples beyond the tail percentile.  Inputs are
generated, and one op is run untimed, before timing starts.

End-to-end metrics (``--trace 0``; last stdout line is the JSON result):

* ``setup_s``     import of lpboot, plus the median of three rounds of input
                  generation and one warm-up op
* ``wall_s``      time of the timed phase: summed ``run_test`` latency, or the
                  ``run_experiment`` call including its truth phase
* ``ops_per_s``   ops / wall_s
* ``op_p50_ms``   median op latency (for mc-ks, per replicate on its pool thread)
* ``op_tail_ms``  latency at the workload's fixed tail percentile (TAIL_PCT)
* ``peak_rss_mb`` ``ru_maxrss`` of the process

``failed_share`` (exceptions plus oracle violations over ops attempted) and a
sha256 digest of the result rows are printed on report lines, not as metrics.

With ``--trace 1`` the workload runs once untraced and then again, on the same
ops, with spans around every call into lpboot's measured modules (see
``spans.py``), and the JSON holds the per-layer metrics.  Spans are kept in
memory and written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("oneshot-cv", "oneshot-naive", "mc-ks")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}
# Fixed per workload so the reported percentile never changes between runs;
# each run does at least ceil(10 / (1 - q/100)) ops so >= 10 samples lie
# beyond it.  oneshot-naive's ~1500 ops per run would allow p99, but on a
# shared 2-vCPU host p99 is set by a handful of steal spikes and its
# run-to-run spread (~0.45 of the median) exceeds any usable bound; p90 is
# the highest percentile that stays inside one.
TAIL_PCT = {"oneshot-cv": 75.0, "oneshot-naive": 90.0, "mc-ks": 75.0}
ALPHA = 0.05
KS_ESTIMATORS = ("proxy", "gmb", "naive", "corr_cv")
KS_THREADS = 2
DIGESTS = HERE / "DIGESTS.json"
OUT_DIR = HERE / "out"


@dataclass(frozen=True)
class Scale:
    n: int = 200
    d: int = 200
    test_B: int = 1000
    ks_B: int = 500
    ks_truth_reps: int = 2000
    ks_cv_folds: int = 4
    ks_cv_grid_size: int = 12
    cv_folds: int | None = None       # None: run_test's default estimator settings
    cv_grid_size: int | None = None
    pool: int = 64                    # distinct one-shot datasets, reused cyclically
    setup_rounds: int = 3
    warm_truth_reps: int = 20
    warm_reps: int = 2
    min_ops: int | None = None        # None: derived from the tail percentile


SCALES = {
    "full": Scale(),
    # seconds-long smoke size for the benchmark's own test
    "tiny": Scale(n=24, d=24, test_B=100, ks_B=100, ks_truth_reps=40, ks_cv_folds=2,
                  ks_cv_grid_size=4, cv_folds=2, cv_grid_size=4, pool=4, setup_rounds=1,
                  warm_truth_reps=10, warm_reps=1, min_ops=4),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_lpboot():
    if not (SRC / "lpboot" / "__init__.py").is_file():
        fail(f"no lpboot sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lpboot

    if SRC.resolve() not in Path(lpboot.__file__).resolve().parents:
        fail(f"imported lpboot from {lpboot.__file__}, not from {SRC}")
    return lpboot


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "HDBOOT_THREADS")},
        "harness_threads": threads,
    }


def min_ops(workload: str, scale: Scale) -> int:
    if scale.min_ops is not None:
        return scale.min_ops
    return math.ceil(10 / (1 - TAIL_PCT[workload] / 100) - 1e-9)


def tail(latencies: list, pct: float) -> tuple:
    """(value at percentile pct, samples strictly beyond it)."""
    import numpy as np

    value = float(np.percentile(latencies, pct))
    return value, sum(1 for x in latencies if x > value)


@dataclass
class Phase:
    """Outcome of one timed pass over a workload's ops."""

    wall_s: float
    latencies: list
    rows: list
    failed: int
    attempted: int


# ---------------------------------------------------------------------------
# one-shot workloads


class OneShot:
    """run_test calls on pre-generated copula datasets; op i uses dataset
    i mod pool, exponent i mod 4 and its own bootstrap seed."""

    def __init__(self, lpboot, workload: str, seed: int, scale: Scale):
        import numpy as np

        self.lp, self.seed, self.scale = lpboot, seed, scale

        est = lpboot.inference.EstimatorSpec.parse(
            "corr_cv" if workload == "oneshot-cv" else "naive")
        if scale.cv_folds is not None:
            est = replace(est, cv_folds=scale.cv_folds,
                          cv_grid=tuple(np.linspace(0.0, 1.0, scale.cv_grid_size)))
        self.estimator = est
        self.M, self.m0 = np.eye(scale.d), np.zeros(scale.d)
        self.p_list = lpboot.harness.default_p_list()

    def setup_round(self) -> None:
        lp, sc = self.lp, self.scale
        root = lp.sampling.RngSeed(self.seed)
        block = lp.harness.ExperimentConfig(kind="ks", n=sc.n, d=sc.d).block
        sigma = lp.sampling.build_block_covariance(sc.d, block, 0.8, root.child(0))
        uniform = lp.sampling.MarginalKind.UNIFORM_SYM
        self.pool = [lp.sampling.copula_sample(sigma, uniform, sc.n, root.child(1, j))
                     for j in range(sc.pool)]
        lp.inference.run_test(self.pool[0], self.spec(0, root.child(3)))

    def spec(self, i: int, seed):
        return self.lp.inference.TestSpec(
            M=self.M, m0=self.m0, p=self.p_list[i % len(self.p_list)], alpha=ALPHA,
            estimator=self.estimator, B=self.scale.test_B, seed=seed)

    def run(self, seconds: float, floor: int, count: int | None = None, tracer=None) -> Phase:
        """Ops until their summed latency reaches seconds and at least floor
        ops ran, or exactly count ops."""
        from oracle import check_test_result

        lat, rows, failed, i, busy = [], [], 0, 0, 0.0
        while (i < count) if count is not None else (busy < seconds or i < floor):
            X = self.pool[i % len(self.pool)]
            spec = self.spec(i, self.lp.sampling.RngSeed(self.seed).child(2, i))
            if tracer is not None:
                tracer.set_op(i)
            t0 = time.perf_counter()
            try:
                res = self.lp.inference.run_test(X, spec)
            except Exception:  # an op that raises counts as failed; the loop goes on
                res, bad = None, [traceback.format_exc()]
            lat.append(time.perf_counter() - t0)
            busy += lat[-1]
            if res is None:
                rows.append(f"{i},{spec.p.label},error")
            else:
                bad = check_test_result(X, spec.p.label, spec.alpha, spec.B, res)
                rows.append(f"{i},{spec.p.label},{res.statistic:.17g},"
                            f"{res.critical_value:.17g},{res.p_value:.17g},{int(res.reject)}")
            if bad:
                failed += 1
                print(f"oracle: op {i}: {'; '.join(bad)}", file=sys.stderr)
            i += 1
        if tracer is not None:
            tracer.set_op(None)
        return Phase(busy, lat, rows, failed, i)


# ---------------------------------------------------------------------------
# Monte Carlo KS workload


class ReplicateTimer:
    """Times each harness replicate by wrapping the worker passed to
    harness._run_indexed; installed around the timed call only."""

    def __init__(self, harness):
        self.harness, self.latencies = harness, []

    def __enter__(self):
        original = self.original = self.harness._run_indexed
        latencies = self.latencies

        def run_indexed(worker, count, threads):
            def timed(i):
                t0 = time.perf_counter()
                try:
                    return worker(i)
                finally:
                    latencies.append(time.perf_counter() - t0)

            return original(timed, count, threads)

        self.harness._run_indexed = run_indexed
        return self

    def __exit__(self, *exc):
        self.harness._run_indexed = self.original
        return False


class MonteCarloKS:
    def __init__(self, lpboot, seed: int, scale: Scale, reps: int):
        self.lp, self.seed, self.scale, self.reps = lpboot, seed, scale, reps

    def config(self, reps: int, truth_reps: int, seed: int):
        sc = self.scale
        return self.lp.harness.ExperimentConfig(
            kind="ks", n=sc.n, d=sc.d, marginal=self.lp.sampling.MarginalKind.UNIFORM_SYM,
            p_list=self.lp.harness.default_p_list(), estimators=KS_ESTIMATORS,
            mc_reps=reps, B=sc.ks_B, truth_reps=truth_reps, cv_folds=sc.ks_cv_folds,
            cv_grid_size=sc.ks_cv_grid_size, seed=seed, threads=KS_THREADS)

    def setup_round(self) -> None:
        self.cfg = self.config(self.reps, self.scale.ks_truth_reps, self.seed)
        warm = self.config(self.scale.warm_reps, self.scale.warm_truth_reps, self.seed + 1)
        self.lp.harness.run_experiment(warm)

    def run(self, seconds: float, floor: int, count: int | None = None, tracer=None) -> Phase:
        from oracle import check_ks_rows

        with ReplicateTimer(self.lp.harness) as timer:
            t0 = time.perf_counter()
            try:
                rows = self.lp.harness.run_experiment(self.cfg)
            except Exception:  # the whole experiment failed: every replicate counts
                traceback.print_exc(file=sys.stderr)
                return Phase(time.perf_counter() - t0, timer.latencies, ["error"],
                             self.reps, self.reps)
            wall = time.perf_counter() - t0
        bad = check_ks_rows(rows, self.reps, KS_ESTIMATORS,
                            [p.label for p in self.cfg.p_list])
        for rep, problems in sorted(bad.items()):
            print(f"oracle: replicate {rep}: {'; '.join(problems)}", file=sys.stderr)
        return Phase(wall, timer.latencies, rows, min(len(bad), self.reps), self.reps)


# ---------------------------------------------------------------------------


def digest(rows: list) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def recorded_digest(args, workload: str):
    try:
        rec = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return None
    if (rec.get("seed"), rec.get("seconds"), rec.get("scale")) != (args.seed, args.seconds,
                                                                     args.scale):
        return None
    return rec.get("digests", {}).get(workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    lpboot = import_lpboot()
    import_s = time.perf_counter() - T_START
    sys.path.insert(0, str(HERE))
    scale = SCALES[args.scale]
    floor = min_ops(args.workload, scale)

    if args.workload == "mc-ks":
        bench = MonteCarloKS(lpboot, args.seed, scale, max(floor, round(4 * args.seconds)))
    else:
        bench = OneShot(lpboot, args.workload, args.seed, scale)
    rounds = []
    for _ in range(scale.setup_rounds):
        t0 = time.perf_counter()
        bench.setup_round()
        rounds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(rounds)

    env = environment(KS_THREADS if args.workload == "mc-ks" else 1)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} scale {args.scale}")
    print("env " + json.dumps(env, sort_keys=True))

    untraced = bench.run(args.seconds, floor)
    phases = [untraced]
    if args.trace:
        from spans import Tracer, per_layer_units

        tracer = Tracer()
        tracer.install()
        try:
            traced = bench.run(args.seconds, floor, count=untraced.attempted, tracer=tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        metrics = tracer.per_layer(traced.wall_s, untraced.wall_s,
                                   KS_THREADS if args.workload == "mc-ks" else 1)
        units = per_layer_units()
        same_rows = traced.rows == untraced.rows
        print(f"trace: traced wall {traced.wall_s:.6f} s, untraced wall {untraced.wall_s:.6f} s, "
              f"overhead {traced.wall_s - untraced.wall_s:+.6f} s; "
              f"top-level spans {metrics['trace.top_level_s']:.6f} s + outside spans "
              f"{metrics['trace.uncovered_s']:.6f} s; rows identical to untraced: {same_rows}")
        write_trace(args, env, tracer, metrics)
    else:
        same_rows = True
        lat = untraced.latencies
        tail_ms, beyond = tail(lat, TAIL_PCT[args.workload])
        metrics = {
            "setup_s": setup_s,
            "wall_s": untraced.wall_s,
            "ops_per_s": untraced.attempted / untraced.wall_s,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_ms * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"setup_s {setup_s:.6f} s  (import {import_s:.6f} s + median of "
              f"{len(rounds)} set-up rounds {[round(r, 6) for r in rounds]})")
        for name in ("wall_s", "ops_per_s", "op_p50_ms"):
            print(f"{name} {metrics[name]:.6f} {units[name]}")
        print(f"op_tail_ms {metrics['op_tail_ms']:.6f} ms  (p{TAIL_PCT[args.workload]:g}, "
              f"{beyond} of {len(lat)} samples beyond)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.6f} MB")

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    print(f"failed_share {failed / attempted:.6f} ratio  ({failed} failed of {attempted} attempted)")
    rows = untraced.rows[:floor] if args.workload != "mc-ks" else untraced.rows
    dig, rec = digest(rows), recorded_digest(args, args.workload)
    status = "none recorded" if rec is None else ("matches" if rec == dig else "DIFFERS from " + rec)
    print(f"digest sha256:{dig} over {len(rows)} rows  (recorded: {status})")
    result = {
        "correct": failed == 0 and same_rows,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def write_trace(args, env: dict, tracer, metrics: dict) -> None:
    from spans import SPAN_FIELDS

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "metrics": metrics, "span_fields": SPAN_FIELDS,
                   "spans": sorted(tracer.spans)}, fh)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())

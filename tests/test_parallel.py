"""The shared pool: index order, the caller's share, no nested pools,
exceptions, and the BLAS thread count around CV's fold pool."""

import sys
import threading
import time

import numpy as np
import pytest

from lpboot import covariance, inference, parallel
from lpboot.harness import ExperimentConfig, run_experiment
from lpboot.inference import EstimatorSpec, run_test
from lpboot.lp import LpExponent
from lpboot.parallel import run_indexed
from lpboot.sampling import RngSeed


@pytest.fixture
def pools(monkeypatch):
    """The helper-thread count of each pool run_indexed starts, in order."""
    started = []
    executor = parallel.ThreadPoolExecutor

    def counting(max_workers):
        started.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", counting)
    return started


def test_results_come_back_in_index_order(pools):
    def worker(i):
        time.sleep(0.002 * (i % 3))  # later indices often finish first
        return i * i

    assert run_indexed(worker, 12, 3) == [i * i for i in range(12)]
    assert pools == [2]


def test_uses_at_most_count_threads(pools):
    assert run_indexed(lambda i: i, 2, 8) == [0, 1]
    assert run_indexed(lambda i: i, 1, 8) == [0]
    assert run_indexed(lambda i: i, 0, 8) == []
    assert pools == [1]


def test_caller_runs_a_share():
    seen = []

    def worker(i):
        seen.append(threading.get_ident())
        time.sleep(0.01)

    run_indexed(worker, 8, 2)
    assert threading.get_ident() in seen
    assert len(set(seen)) == 2


def test_call_inside_a_worker_runs_serially(pools):
    def outer(i):
        return run_indexed(lambda j: (i, j), 3, 4)

    assert run_indexed(outer, 4, 2) == [[(i, j) for j in range(3)] for i in range(4)]
    assert pools == [1]
    # the caller is no pool worker once its pool has ended
    run_indexed(lambda i: i, 2, 2)
    assert pools == [1, 1]


def test_cv_inside_harness_workers_starts_no_pool(pools, monkeypatch):
    monkeypatch.setattr(covariance, "_available_cores", lambda: 3)
    kw = dict(kind="ks", n=40, d=20, mc_reps=3, B=100, truth_reps=50, block=2,
              cv_folds=3, cv_grid_size=5, estimators=("corr_cv",))
    pooled = run_experiment(ExperimentConfig(threads=2, **kw))
    assert pools == [1]
    # a serial harness leaves CV free to spread its folds
    assert run_experiment(ExperimentConfig(threads=1, **kw)) == pooled
    assert pools == [1] + [2] * 3


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_exception_propagates_and_blas_count_returns(blas_at_two, pools, raiser):
    caller = threading.get_ident()
    # indices 0 and 1 meet here, so they run on different threads
    both_started = threading.Barrier(2, timeout=10)

    def worker(i):
        if i < 2:
            both_started.wait()
        assert blas_at_two() == 1
        if (threading.get_ident() == caller) == (raiser == "caller"):
            raise RuntimeError(f"{raiser} failed")

    with pytest.raises(RuntimeError, match=f"{raiser} failed"):
        run_indexed(worker, 6, 2)
    assert blas_at_two() == 2
    run_indexed(lambda i: i, 2, 2)
    assert pools == [1, 1]


def test_run_test_with_corr_cv_restores_blas(blas_at_two, monkeypatch):
    monkeypatch.setattr(covariance, "_available_cores", lambda: 2)
    seen = []
    sample_covariance = covariance.sample_covariance

    def recording(X):
        seen.append(blas_at_two())
        return sample_covariance(X)

    # only the folds look this name up in covariance
    monkeypatch.setattr(covariance, "sample_covariance", recording)
    X = RngSeed(3).generator().standard_normal((30, 5))
    spec = inference.TestSpec(M=np.eye(5), m0=np.zeros(5), p=LpExponent.finite(2),
                              alpha=0.05, estimator=EstimatorSpec("corr_cv", cv_folds=4),
                              B=100, seed=RngSeed(4))
    run_test(X, spec)
    assert seen == [1] * 8  # two splits per fold
    assert blas_at_two() == 2


def test_stress_each_index_runs_once():
    count = 3000
    runs = [0] * count

    def worker(i):
        runs[i] += 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_indexed(worker, count, 8)
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(count))
    assert runs == [1] * count

"""The shared pool: index order, at most one pool at a time, the cap at the
usable cores, exceptions and the cancellation they cause, and the BLAS thread
count around CV's fold pool."""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from lpboot import covariance, inference, parallel, sampling
from lpboot.harness import ExperimentConfig, run_experiment
from lpboot.inference import EstimatorSpec, run_test
from lpboot.lp import LpExponent
from lpboot.parallel import run_indexed
from lpboot.sampling import RngSeed


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool run_indexed starts, in order, on 8
    usable cores."""
    started = []
    executor = parallel.ThreadPoolExecutor

    def counting(max_workers):
        started.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", counting)
    monkeypatch.setattr(parallel, "_available_cores", lambda: 8)
    return started


def test_results_come_back_in_index_order(pools):
    def worker(i):
        time.sleep(0.002 * (i % 3))  # later indices often finish first
        return i * i

    assert run_indexed(worker, 12, 3) == [i * i for i in range(12)]
    assert pools == [3]


def test_uses_at_most_count_threads(pools):
    assert run_indexed(lambda i: i, 2, 8) == [0, 1]
    assert run_indexed(lambda i: i, 1, 8) == [0]
    assert run_indexed(lambda i: i, 0, 8) == []
    assert pools == [2]


def test_uses_at_most_the_usable_cores(pools, monkeypatch):
    monkeypatch.setattr(parallel, "_available_cores", lambda: 3)
    names = set()

    def worker(i):
        names.add(threading.current_thread().name)
        time.sleep(0.005)
        return i

    assert run_indexed(worker, 6, 1000) == list(range(6))
    assert pools == [3]
    assert len(names) <= 3
    monkeypatch.setattr(parallel, "_available_cores", lambda: 1)
    assert run_indexed(lambda i: threading.current_thread(), 4, 1000) == [
        threading.current_thread()] * 4
    assert pools == [3]


def test_call_inside_a_worker_runs_serially(pools):
    def outer(i):
        return run_indexed(lambda j: (i, j), 3, 4)

    assert run_indexed(outer, 4, 2) == [[(i, j) for j in range(3)] for i in range(4)]
    assert pools == [2]
    # the caller is no pool worker once its pool has ended
    run_indexed(lambda i: i, 2, 2)
    assert pools == [2, 2]


def test_call_from_another_thread_while_a_pool_runs_is_serial(blas_at_two, pools):
    # at most one pool per process: b calls while a's pool holds its workers
    a_started, b_done = threading.Event(), threading.Event()
    seen_a, got_b = [], []

    def worker_a(i):
        a_started.set()
        assert b_done.wait(10)
        seen_a.append(blas_at_two())

    def run_b():
        assert a_started.wait(10)
        got_b.extend(run_indexed(lambda i: (i, threading.current_thread()), 4, 2))
        b_done.set()

    b = threading.Thread(target=run_b)
    b.start()
    run_indexed(worker_a, 2, 2)
    b.join(30)
    assert not b.is_alive()
    assert got_b == [(i, b) for i in range(4)]  # in order, on b itself
    assert pools == [2]
    assert seen_a == [1, 1]
    assert blas_at_two() == 2


@contextlib.contextmanager
def held_by_another_thread():
    """Another thread holds the pool until the block ends."""
    taken, done = threading.Event(), threading.Event()

    def holder():
        with parallel.hold() as held:
            assert held
            taken.set()
            assert done.wait(10)

    t = threading.Thread(target=holder)
    t.start()
    assert taken.wait(10)
    try:
        yield
    finally:
        done.set()
        t.join(10)
    assert not t.is_alive()


def test_hold_false_takes_nothing(blas_at_two):
    got = []

    def take():
        with parallel.hold() as held:
            got.append((held, blas_at_two()))

    with parallel.hold(False) as held:
        assert held is False
        assert blas_at_two() == 2
        # the lock is free: another thread takes the hold meanwhile
        other = threading.Thread(target=take)
        other.start()
        other.join(10)
    assert got == [(True, 1)]
    assert blas_at_two() == 2
    with held_by_another_thread():
        assert blas_at_two() == 1  # the holder's pin
        with parallel.hold(False) as held:
            assert held is False
            assert blas_at_two() == 1
        assert blas_at_two() == 1
    assert blas_at_two() == 2


def test_nested_hold_pins_and_restores_the_count_it_found(blas_at_two):
    set_threads = parallel._openblas_thread_calls()[1]
    with parallel.hold() as outer:
        assert outer and blas_at_two() == 1
        set_threads(3)
        with parallel.hold() as inner:
            assert inner and blas_at_two() == 1
        assert blas_at_two() == 3
        with pytest.raises(RuntimeError, match="body failed"):
            with parallel.hold():
                raise RuntimeError("body failed")
        assert blas_at_two() == 3
    assert blas_at_two() == 2


def test_one_worker_runs_serially_with_the_blas_count_it_found(blas_at_two, pools):
    me = threading.current_thread()
    assert run_indexed(lambda i: (i, threading.current_thread(), blas_at_two()), 3, 1) == [
        (i, me, 2) for i in range(3)]
    with held_by_another_thread():
        # one worker takes no hold, so it runs beside the holder
        assert run_indexed(lambda i: (i, threading.current_thread()), 3, 1) == [
            (i, me) for i in range(3)]
    assert pools == []
    assert blas_at_two() == 2


def test_cv_inside_harness_workers_starts_no_pool(pools):
    kw = dict(kind="ks", n=40, d=20, mc_reps=3, B=100, truth_reps=50, block=2,
              cv_folds=3, cv_grid_size=5, estimators=("corr_cv",))
    pooled = run_experiment(ExperimentConfig(threads=2, **kw))
    # one pool for the truth datasets, one for the replicates
    assert pools == [2, 2]
    # a serial harness leaves CV free to spread its folds
    assert run_experiment(ExperimentConfig(threads=1, **kw)) == pooled
    assert pools == [2, 2] + [3] * 3


def test_exception_propagates_and_blas_count_returns(blas_at_two, pools):
    def worker(i):
        assert blas_at_two() == 1
        if i == 3:
            raise RuntimeError("index 3 failed")

    with pytest.raises(RuntimeError, match="index 3 failed"):
        run_indexed(worker, 6, 2)
    assert blas_at_two() == 2
    run_indexed(lambda i: i, 2, 2)
    assert pools == [2, 2]


def test_exception_waits_for_started_indices(blas_at_two, pools):
    started, ended = threading.Event(), []

    def worker(i):
        if i == 0:
            assert started.wait(10)
            raise RuntimeError("index 0 failed")
        if i == 1:
            started.set()
            time.sleep(0.2)
            ended.append(blas_at_two())

    with pytest.raises(RuntimeError, match="index 0 failed"):
        run_indexed(worker, 20, 2)
    # index 1 ended, under the pin, before the call returned and the pin went
    assert ended == [1]
    assert blas_at_two() == 2


def test_exception_cancels_indices_not_started():
    count = 50
    ran = []

    def worker(i):
        ran.append(i)
        if i == 0:
            raise RuntimeError("index 0 failed")
        time.sleep(0.01)

    with pytest.raises(RuntimeError, match="index 0 failed"):
        run_indexed(worker, count, 2)
    assert len(ran) < count


def test_run_test_with_corr_cv_restores_blas(blas_at_two, monkeypatch):
    monkeypatch.setattr(parallel, "_available_cores", lambda: 2)
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


def _spec(kind, d=5, **kw):
    return inference.TestSpec(M=np.eye(d), m0=np.zeros(d), p=LpExponent.finite(2), alpha=0.05,
                              estimator=EstimatorSpec(kind, **kw), B=100, seed=RngSeed(4))


@pytest.fixture
def factorizations(blas_at_two, monkeypatch):
    """The BLAS thread count each factorize_psd call reads, in order, with
    raising set to make the next call raise after reading it."""
    seen = []
    factorize_psd = sampling.factorize_psd

    def recording(S):
        seen.append(blas_at_two())
        if recording.raising:
            raise RuntimeError("factorization failed")
        return factorize_psd(S)

    recording.raising = False
    monkeypatch.setattr(sampling, "factorize_psd", recording)
    return seen, recording


@pytest.mark.parametrize("kind, inside", [("corr_cv", 1), ("naive", 2), ("hard", 2),
                                          ("band", 2)])
def test_run_test_holds_the_pin_only_with_corr_cv(blas_at_two, factorizations, kind, inside):
    seen, recording = factorizations
    X = RngSeed(3).generator().standard_normal((30, 5))
    run_test(X, _spec(kind, cv_folds=4))
    assert seen == [inside]
    assert blas_at_two() == 2
    recording.raising = True
    with pytest.raises(RuntimeError, match="factorization failed"):
        run_test(X, _spec(kind, cv_folds=4))
    assert seen == [inside] * 2
    assert blas_at_two() == 2
    # the lock went with the pin: another thread can take the hold again
    got = []

    def take():
        with parallel.hold() as held:
            got.append((held, blas_at_two()))

    other = threading.Thread(target=take)
    other.start()
    other.join(10)
    assert got == [(True, 1)]
    assert blas_at_two() == 2


def test_cv_from_another_thread_runs_serially_while_run_test_holds(pools, monkeypatch):
    X = RngSeed(5).generator().standard_normal((30, 5))
    grid = [0.0, 0.5, 1.0]
    alone = covariance.cv_select_lambda(X, grid, 2, RngSeed(6))
    assert pools == [2]
    pools.clear()
    other = []
    cv_select_lambda = inference.cv_select_lambda

    def with_cv_beside(*args):
        # the holder is inside its run_test here, before its own CV
        t = threading.Thread(target=lambda: other.append(
            covariance.cv_select_lambda(X, grid, 2, RngSeed(6))))
        t.start()
        t.join(30)
        assert pools == []
        return cv_select_lambda(*args)

    monkeypatch.setattr(inference, "cv_select_lambda", with_cv_beside)
    run_test(X, _spec("corr_cv", cv_folds=2))
    assert other == [alone]
    assert pools == [2]  # the holder's own CV re-enters its hold


@pytest.fixture
def blas_reads(blas_at_two, monkeypatch):
    """The BLAS thread count read at each call of the named functions, looked
    up in the given module, with raising set to make the next call raise
    after reading it."""
    seen = []

    def install(module, *names):
        for name in names:
            original = getattr(module, name)

            def recording(*args, _name=name, _original=original):
                seen.append((_name, blas_at_two()))
                if install.raising:
                    raise RuntimeError(f"{_name} failed")
                return _original(*args)

            monkeypatch.setattr(module, name, recording)
        return seen

    install.raising = False
    return install


@pytest.mark.parametrize("kind, inside", [("corr_cv", 1), ("naive", 2), ("hard", 2),
                                          ("band", 2)])
def test_estimate_covariance_holds_the_pin_only_with_corr_cv(blas_at_two, blas_reads, kind,
                                                            inside):
    # called directly, outside run_test, as demos/covariance_tuning.py calls CV
    seen = blas_reads(inference, "sample_covariance", "psd_project")
    X = RngSeed(3).generator().standard_normal((30, 5))
    spec = EstimatorSpec(kind, cv_folds=2, cv_grid=(0.0, 0.5, 1.0))
    inference.estimate_covariance(X, spec, RngSeed(4))
    projected = [("psd_project", inside)] if kind != "naive" else []
    assert seen == [("sample_covariance", inside)] + projected
    assert blas_at_two() == 2
    seen.clear()
    blas_reads.raising = True
    with pytest.raises(RuntimeError, match="sample_covariance failed"):
        inference.estimate_covariance(X, spec, RngSeed(4))
    assert seen == [("sample_covariance", inside)]
    assert blas_at_two() == 2


def test_cv_select_lambda_keeps_the_count_it_found(blas_at_two, blas_reads, monkeypatch):
    # one fold runs serially in the caller, which takes no hold
    seen = blas_reads(covariance, "sample_covariance")
    X = RngSeed(3).generator().standard_normal((30, 5))
    covariance.cv_select_lambda(X, [0.0, 0.5, 1.0], 1, RngSeed(4))
    assert seen == [("sample_covariance", 2)] * 2  # the fold's two splits
    assert blas_at_two() == 2
    # two folds run on the pool, whose hold pins them
    monkeypatch.setattr(parallel, "_available_cores", lambda: 2)
    seen.clear()
    covariance.cv_select_lambda(X, [0.0, 0.5, 1.0], 2, RngSeed(4))
    assert seen == [("sample_covariance", 1)] * 4
    assert blas_at_two() == 2
    seen.clear()
    blas_reads.raising = True
    with pytest.raises(RuntimeError, match="sample_covariance failed"):
        covariance.cv_select_lambda(X, [0.0, 0.5, 1.0], 2, RngSeed(4))
    assert seen and set(seen) == {("sample_covariance", 1)}
    assert blas_at_two() == 2


@pytest.mark.parametrize("threads, estimators, inside", [
    (2, ("naive",), 1),
    (1, ("corr_cv",), 1),
    (1, ("proxy", "naive"), 2),  # starts no pool, so holds nothing
])
def test_run_experiment_holds_the_pin_when_it_may_pool(blas_at_two, factorizations, monkeypatch,
                                                       threads, estimators, inside):
    monkeypatch.setattr(parallel, "_available_cores", lambda: 2)
    seen, _ = factorizations
    run_experiment(ExperimentConfig(kind="ks", n=40, d=20, mc_reps=2, B=100, truth_reps=20,
                                    block=2, cv_folds=2, cv_grid_size=3, estimators=estimators,
                                    threads=threads))
    # every call, the serial Sigma.factor() before the truth pool included
    assert seen and set(seen) == {inside}
    assert blas_at_two() == 2


def test_stress_each_index_runs_once(monkeypatch):
    monkeypatch.setattr(parallel, "_available_cores", lambda: 8)  # more workers than cores
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

"""The shared pool: index order, at most one pool at a time, the cap at the
usable cores, exceptions and the cancellation they cause, the BLAS thread
count around CV, every run_test and every direct covariance call, lpboot
without numpy's bundled OpenBLAS, and the draws' first blocks drawn while
the covariance is factorized."""

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from lpboot import bootstrap, covariance, diagnostics, inference, parallel, sampling
from lpboot.covariance import CovMatrix, sample_covariance
from lpboot.harness import ExperimentConfig, run_experiment
from lpboot.inference import EstimatorSpec, run_test
from lpboot.lp import LpExponent
from lpboot.parallel import run_indexed
from lpboot.sampling import RngSeed


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool run_indexed starts, in order, on 8
    usable cores: its executor's threads and the caller."""
    started = []
    executor = parallel.ThreadPoolExecutor

    def counting(max_workers):
        started.append(max_workers + 1)
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


def test_caller_is_one_of_the_workers(pools):
    # two indices that each wait for the other: one pool thread and the caller
    both = threading.Barrier(2, timeout=10)

    def worker(i):
        both.wait()
        return threading.current_thread(), run_indexed(lambda j: j, 3, 3)

    ran = run_indexed(worker, 2, 2)
    threads = [thread for thread, _ in ran]
    assert threading.current_thread() in threads and len(set(threads)) == 2
    # neither worker nests a pool, the caller included, though it holds the lock
    assert [inner for _, inner in ran] == [[0, 1, 2]] * 2
    assert pools == [2]


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
    # a serial harness leaves CV free to spread its folds, and each
    # replicate's draws then factorize Sigma_hat beside their first normals
    assert run_experiment(ExperimentConfig(threads=1, **kw)) == pooled
    assert pools == [2, 2] + [3, 2] * 3


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
    gram = covariance._gram

    def recording(X):
        seen.append((len(X), blas_at_two()))
        return gram(X)

    # the folds' splits and sample_covariance build their matrices with _gram
    monkeypatch.setattr(covariance, "_gram", recording)
    X = RngSeed(3).generator().standard_normal((30, 5))
    spec = inference.TestSpec(M=np.eye(5), m0=np.zeros(5), p=LpExponent.finite(2),
                              alpha=0.05, estimator=EstimatorSpec("corr_cv", cv_folds=4),
                              B=100, seed=RngSeed(4))
    run_test(X, spec)
    splits = [blas for rows, blas in seen if rows < len(X)]
    assert splits == [1] * 8  # two splits per fold
    assert sorted(seen) == [(10, 1)] * 4 + [(20, 1)] * 4 + [(30, 1)]  # and the sample's
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


@pytest.mark.parametrize("kind", ["corr_cv", "naive", "hard", "band"])
def test_run_test_holds_the_pin_for_every_kind(blas_at_two, factorizations, kind):
    seen, recording = factorizations
    X = RngSeed(3).generator().standard_normal((30, 5))
    run_test(X, _spec(kind, cv_folds=4))
    assert seen == [1]
    assert blas_at_two() == 2
    recording.raising = True
    with pytest.raises(RuntimeError, match="factorization failed"):
        run_test(X, _spec(kind, cv_folds=4))
    assert seen == [1] * 2
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
    # the holder's own CV re-enters its hold, and so do its draws
    assert pools == [2, 2]


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


@pytest.mark.parametrize("kind", ["corr_cv", "naive", "hard", "band"])
def test_estimate_covariance_holds_the_pin_for_every_kind(blas_at_two, blas_reads, kind):
    # called directly, outside run_test, as demos/covariance_tuning.py calls CV
    seen = blas_reads(inference, "sample_covariance", "psd_project")
    X = RngSeed(3).generator().standard_normal((30, 5))
    spec = EstimatorSpec(kind, cv_folds=2, cv_grid=(0.0, 0.5, 1.0))
    inference.estimate_covariance(X, spec, RngSeed(4))
    projected = [("psd_project", 1)] if kind != "naive" else []
    assert seen == [("sample_covariance", 1)] + projected
    assert blas_at_two() == 2
    seen.clear()
    blas_reads.raising = True
    with pytest.raises(RuntimeError, match="sample_covariance failed"):
        inference.estimate_covariance(X, spec, RngSeed(4))
    assert seen == [("sample_covariance", 1)]
    assert blas_at_two() == 2


def test_cv_select_lambda_holds_the_pin(blas_at_two, blas_reads, monkeypatch):
    # one fold runs serially in the caller, under the call's own hold
    seen = blas_reads(covariance, "_gram")
    X = RngSeed(3).generator().standard_normal((30, 5))
    covariance.cv_select_lambda(X, [0.0, 0.5, 1.0], 1, RngSeed(4))
    assert seen == [("_gram", 1)] * 2  # the fold's two splits
    assert blas_at_two() == 2
    # two folds run on the pool, which re-enters that hold
    monkeypatch.setattr(parallel, "_available_cores", lambda: 2)
    seen.clear()
    covariance.cv_select_lambda(X, [0.0, 0.5, 1.0], 2, RngSeed(4))
    assert seen == [("_gram", 1)] * 4
    assert blas_at_two() == 2
    blas_reads.raising = True
    for folds in (1, 2):
        seen.clear()
        with pytest.raises(RuntimeError, match="_gram failed"):
            covariance.cv_select_lambda(X, [0.0, 0.5, 1.0], folds, RngSeed(4))
        assert seen and set(seen) == {("_gram", 1)}
        assert blas_at_two() == 2


def test_direct_calls_do_not_depend_on_the_blas_count():
    # from d of about 250 OpenBLAS on two threads changes the last bits of
    # eigh, eigvalsh, the SVD and the products, unless the call pins one
    # thread itself
    calls = parallel._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, set_ = calls
    d = 450
    values = sampling.build_block_covariance(d, 10, 0.8, RngSeed(0)).values + 0.5 * np.eye(d)
    F = sampling.factorize_psd(CovMatrix(values))

    def cv_bytes(got):
        lam, risks = got
        return lam, np.array(risks).tobytes()  # NaN entries compare equal as bytes

    before, out = get(), []
    try:
        set_(1)  # the inputs of the covariance calls, the same bytes on every side
        X = sampling.mvn_sample(F, 200, RngSeed(1))
        S_hat = sample_covariance(X)
        white = sample_covariance(RngSeed(1).generator().standard_normal((200, d)))
        for count in (1, 2):
            set_(count)
            S = CovMatrix(values)  # uncached, so the probe factorizes it
            report = diagnostics.levy_concentration(S, LpExponent.finite(2), 0.05, 1000,
                                                    RngSeed(2))
            out.append((sampling.copula_sample(CovMatrix(values),
                                               sampling.MarginalKind.UNIFORM_SYM, 200,
                                               RngSeed(1)).tobytes(),
                        sampling.factorize_psd(CovMatrix(values)).factor.tobytes(),
                        sampling.mvn_sample(F, 200, RngSeed(1)).tobytes(),
                        report, S.factor().factor.tobytes(),
                        sample_covariance(X).values.tobytes(),
                        covariance.psd_project(covariance.threshold(S_hat, 0.05)).values.tobytes(),
                        covariance.cov_diagnostics(S_hat),
                        covariance.cov_error(white, CovMatrix(np.eye(d)), []).delta_op,
                        cv_bytes(covariance.cv_select_lambda(X, np.linspace(0.0, 1.0, 12),
                                                             1, RngSeed(2)))))
            assert get() == count
    finally:
        set_(before)
    assert out[0] == out[1]


@pytest.mark.parametrize("threads, estimators, inside", [
    (2, ("naive",), 1),
    (1, ("corr_cv",), 1),
    (1, ("proxy", "naive"), 1),  # serial and without CV, but held all the same
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


def test_without_the_bundled_openblas(pools, monkeypatch):
    # macOS and Windows wheels and numpy on MKL: no thread count to pin, so
    # no pool beside the BLAS's own threads, and numpy's LAPACK in place of
    # ssyevd and dpotrf_work, with the same bytes, also at the benchmark's
    # n = d = 200 with CV's default 10 x 40; the common factor makes CV's
    # eigenvalue rung run
    rng = RngSeed(3).generator()
    X = rng.standard_normal((60, 40)) + 2.0 * rng.standard_normal((60, 1))
    wide = rng.standard_normal((200, 200)) + 2.0 * rng.standard_normal((200, 1))
    ks = ExperimentConfig(kind="ks", n=40, d=20, mc_reps=2, B=100, truth_reps=20, block=2,
                          cv_folds=2, cv_grid_size=3, estimators=("corr_cv", "naive"))

    def outputs():
        got = [run_test(X, _spec("corr_cv", d=40, cv_folds=4)),
               run_test(wide, _spec("corr_cv", d=200))]
        return [(res.statistic, res.critical_value, res.reject, res.p_value,
                 res.distribution.samples.tobytes()) for res in got] + [run_experiment(ks)]

    with_library = outputs()
    eigvalsh, single = covariance._eigvalsh, []

    def counting(a, dtype=np.float64):
        single.append(dtype == np.float32)
        return eigvalsh(a, dtype)

    monkeypatch.setattr(parallel, "_openblas_thread_calls", lambda: None)
    monkeypatch.setattr(covariance, "_lapacke", lambda routine: None)
    monkeypatch.setattr(covariance, "_eigvalsh", counting)
    with parallel.hold() as held:
        assert held
    got = []

    def take():
        with parallel.hold() as taken:
            got.append(taken)

    other = threading.Thread(target=take)  # the hold released the lock
    other.start()
    other.join(10)
    assert got == [True]
    pools.clear()
    assert run_indexed(lambda i: i, 4, 2) == [0, 1, 2, 3]
    assert pools == []
    assert outputs() == with_library
    assert pools == []
    assert any(single)


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


def _draw_covariances():
    """Sample covariances at d = 200 of full rank, of rank 100 (copula data
    with rank-one blocks of two equal coordinates) and of rank 0."""
    d = 200
    X = RngSeed(7).generator().standard_normal((2 * d, d))
    latent = sampling.build_block_covariance(d, 2, 0.8, RngSeed(0))
    C = sampling.copula_sample(latent, sampling.MarginalKind.UNIFORM_SYM, d, RngSeed(1))
    return {"full": sample_covariance(X), "deficient": sample_covariance(C),
            "zero": CovMatrix(np.zeros((d, d)))}


FOUR_P = (LpExponent.finite(1), LpExponent.finite(2), LpExponent.log_dim(),
          LpExponent.infinity())


def _block_draws(rows, B, rng, d, p_list=FOUR_P):
    """The kernel's draws block by block: block j's rows are rows(m,
    rng.child(j)) for its m rows, their norms taken in one pass."""
    qs = [p.resolve(d) for p in p_list]
    parts = []
    for j, lo in enumerate(range(0, B, bootstrap._ROWS)):
        V = rows(min(bootstrap._ROWS, B - lo), rng.child(j))
        parts.append(bootstrap._row_norms(np.abs(V), qs))
    return {p: np.concatenate([norms[i] for norms in parts]) for i, p in enumerate(p_list)}


def _same_draws(got, want):
    assert list(got) == list(want)
    for p in want:
        assert got[p].tobytes() == want[p].tobytes(), p


LOOKAHEAD_ORDERS = ("prepare first", "ahead first", "block 0 waits")


@pytest.fixture
def lookahead_order(monkeypatch):
    """Once called with one of LOOKAHEAD_ORDERS, run the kernel's pipeline
    in that fixed order, and return the list of every generator made, as
    (stream path, index of the kernel's run_indexed that made it, or None
    outside it), in the order they are made:
    - "prepare first": index 1 waits before its first block until index 0
      (prepare) has ended, so it draws no block ahead;
    - "ahead first": index 0 waits until index 1 has returned, so index 1
      draws every block it may ahead;
    - "block 0 waits": index 0 waits until index 1 is inside block 0's draw,
      and index 1 waits there until block 0's worker has started, so W is
      known and block 0's worker finds block 0 being drawn, and uses it."""
    running = threading.local()
    generator, indexed = RngSeed.generator, bootstrap.run_indexed

    def install(order):
        made = []
        prepared, returned, in_block_0, block_0_started = (threading.Event() for _ in range(4))
        waits = {"prepare first": {1: prepared}, "ahead first": {0: returned},
                 "block 0 waits": {0: in_block_0}}[order]
        ends = {0: prepared, 1: returned}

        class HeldInBlock0:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, *args, **kwargs):
                in_block_0.set()
                assert block_0_started.wait(10)
                return self.gen.standard_normal(*args, **kwargs)

        def generate(seed):
            index = getattr(running, "index", None)
            made.append((seed.stream_path, index))
            held = order == "block 0 waits" and index == 1
            return HeldInBlock0(generator(seed)) if held else generator(seed)

        def run_indexed(worker, count, threads):
            def step(i):
                if i in waits:
                    assert waits[i].wait(10)
                if i == 2:
                    block_0_started.set()
                running.index = i
                try:
                    return worker(i)
                finally:
                    running.index = None
                    if i in ends:
                        ends[i].set()

            return indexed(step, count, threads)

        monkeypatch.setattr(RngSeed, "generator", generate)
        monkeypatch.setattr(bootstrap, "run_indexed", run_indexed)
        return made

    return install


def _lookahead_streams(order, rng, B):
    """The generators the kernel makes, in that order, for B draws from rng:
    (stream path, index that makes it), sorted. Index 1 draws blocks ahead,
    and index 2 + j is block j."""
    blocks = (B - 1) // bootstrap._ROWS + 1
    ahead = {"prepare first": 0, "ahead first": min(blocks, bootstrap._AHEAD),
             "block 0 waits": 1}[order]
    own = range(ahead, blocks)
    return sorted([(rng.child(j).stream_path, 1) for j in range(ahead)]
                  + [(rng.child(j).stream_path, 2 + j) for j in own])


def _no_thread_left(before):
    """No thread started since `before` (threading.enumerate()) still runs."""
    assert set(threading.enumerate()) <= set(before)


# one row, a block's edges (and the 256-row blocks of an earlier kernel),
# many blocks, and past the blocks drawn ahead
AHEAD_ROWS = bootstrap._AHEAD * bootstrap._ROWS
BLOCK_EDGES = [1, 255, 256, 257, bootstrap._ROWS - 1, bootstrap._ROWS, bootstrap._ROWS + 1,
               1000, 4097, AHEAD_ROWS + 1]


class TestDrawOverlap:
    """bootstrap._norm_draws draws block j of rows from stream j of its
    seed. A source whose W is not known yet (an unfactored covariance) is
    one run_indexed pipeline: index 0 prepares W (here, factorizes the
    covariance) while index 1 draws the first blocks' normals ahead, and
    every later index is a block. A source whose W is known runs its blocks
    on the calling thread, with no pool. Pooled, serial and in each fixed
    order of prepare and the look-ahead, block j's draws are the norms of
    mvn_sample(F, rows, rng.child(j))."""

    @pytest.mark.parametrize("B", BLOCK_EDGES)
    @pytest.mark.parametrize("rank", ["full", "deficient", "zero", "full at d = 199"])
    def test_mvn_pipeline_bytes(self, pools, lookahead_order, rank, B):
        if rank == "full at d = 199":  # where 256-row blocks changed the last bits
            S = sample_covariance(RngSeed(7).generator().standard_normal((400, 199)))
        else:
            S = _draw_covariances()[rank]
        F = sampling.factorize_psd(S)
        rng = RngSeed(5).child(2)
        want = _block_draws(lambda m, seed: sampling.mvn_sample(F, m, seed), B, rng, S.dim)
        blocks = {rng.child(j).stream_path for j in range(len(range(0, B, bootstrap._ROWS)))}
        for mode in ("pooled", "serial", "cached") + LOOKAHEAD_ORDERS:
            pools.clear()
            streams = lookahead_order(mode) if mode in LOOKAHEAD_ORDERS else None
            S_mode = CovMatrix(S.values)
            if mode == "cached":
                S_mode.factor()
            with held_by_another_thread() if mode == "serial" else parallel.hold():
                got = bootstrap._norm_draws(bootstrap._mvn_rows(S_mode), FOUR_P, B, rng)
            _same_draws(got, want)
            assert pools == ([] if mode in ("serial", "cached") else [2])
            # each block's stream once, by index 1 or by the block, even
            # where index 1 was inside block 0's draw when W became known
            if streams is not None:
                assert {path for path, _ in streams} == blocks
                assert sorted(streams) == _lookahead_streams(mode, rng, B)

    @pytest.mark.parametrize("B", BLOCK_EDGES)
    @pytest.mark.parametrize("data", ["mixed", "constant"])
    def test_multiplier_draw_bytes(self, pools, data, B):
        n, d = 60, 200
        X = RngSeed(8).generator().standard_normal((n, d)) * np.linspace(0.01, 100.0, d)
        if data == "constant":  # identical rows, whose mean is exact: all-zero draws
            X = np.tile(np.arange(d) - 100.0, (n, 1))
        Xc = (X - X.mean(axis=0)) / np.sqrt(n)
        rng = RngSeed(9)
        want = _block_draws(lambda m, seed: seed.generator().standard_normal((m, n)) @ Xc,
                            B, rng, d)
        for serial in (False, True):
            with held_by_another_thread() if serial else parallel.hold():
                got = bootstrap._norm_draws(bootstrap._multiplier_rows(X), FOUR_P, B, rng)
            _same_draws(got, want)
        assert pools == []  # W is known: no pool
        assert (data == "constant") == (not want[FOUR_P[0]].any())

    @pytest.mark.parametrize("rank", ["full", "deficient", "zero"])
    def test_pooled_lookahead_equals_mvn_sample(self, pools, lookahead_order, rank):
        S = _draw_covariances()[rank]
        F = sampling.factorize_psd(S)
        assert F.rank == {"full": 200, "deficient": 100, "zero": 0}[rank]
        seed = RngSeed(5).child(2)
        want = _block_draws(lambda m, s: sampling.mvn_sample(F, m, s), 1000, seed, S.dim)
        for order in LOOKAHEAD_ORDERS:
            pools.clear()
            streams = lookahead_order(order)
            with parallel.hold():
                got = bootstrap._norm_draws(bootstrap._mvn_rows(CovMatrix(S.values)), FOUR_P,
                                            1000, seed)
            # index 1 draws at width d, so a block of rank 0 is drawn ahead too
            assert [path for path, _ in streams].count(seed.child(0).stream_path) == 1
            _same_draws(got, want)
            assert pools == [2]

    @pytest.mark.parametrize("rank", ["full", "deficient", "zero"])
    def test_serial_blocks_equal_mvn_sample(self, pools, rank):
        S = _draw_covariances()[rank]
        seed = RngSeed(5).child(2)
        F = sampling.factorize_psd(S)
        want = _block_draws(lambda m, s: sampling.mvn_sample(F, m, s), 1000, seed, S.dim)
        with held_by_another_thread():
            got = bootstrap._norm_draws(bootstrap._mvn_rows(S), FOUR_P, 1000, seed)
        _same_draws(got, want)
        assert pools == []

    def test_block_past_the_lookahead(self, pools, lookahead_order):
        # a pooled draw of _AHEAD blocks and one row, in which index 1 is
        # inside block 0's draw when W becomes known: block 0's worker uses
        # what index 1 drew, and every other block draws its own normals
        # once, into its region of the look-ahead buffer or, for the last,
        # outside it
        S = _draw_covariances()["deficient"]
        F = sampling.factorize_psd(S)
        p, rng, B = LpExponent.finite(2), RngSeed(6), AHEAD_ROWS + 1
        want = _block_draws(lambda m, seed: sampling.mvn_sample(F, m, seed), B, rng,
                            S.dim, (p,))[p]
        streams = lookahead_order("block 0 waits")
        got = bootstrap.gpb_draws(S, p, B, rng)
        assert np.array_equal(got.samples, np.sort(want))
        assert pools == [2]
        blocks = [rng.child(j).stream_path for j in range(bootstrap._AHEAD + 1)]
        assert sorted(streams) == sorted([(blocks[0], 1)] + [
            (path, 2 + j) for j, path in enumerate(blocks) if j > 0])

    def test_more_workers_than_cores_keep_the_bytes(self, pools, monkeypatch):
        # the blocks read what index 1 drew ahead and its count: with four
        # workers (more than the cores) and a short switch interval, every
        # schedule still gives each block its own stream's bytes
        indexed = bootstrap.run_indexed
        monkeypatch.setattr(bootstrap, "run_indexed",
                            lambda worker, count, threads: indexed(worker, count, 4))
        d = 40
        S = sample_covariance(RngSeed(3).generator().standard_normal((25, d)))  # rank 24
        F = sampling.factorize_psd(S)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for B in (1, bootstrap._ROWS + 1, 2000, AHEAD_ROWS + bootstrap._ROWS + 1):
                want = _block_draws(lambda m, seed: sampling.mvn_sample(F, m, seed), B,
                                    RngSeed(4), d)
                for _ in range(5):
                    with parallel.hold():
                        got = bootstrap._norm_draws(bootstrap._mvn_rows(CovMatrix(S.values)),
                                                    FOUR_P, B, RngSeed(4))
                    _same_draws(got, want)
        finally:
            sys.setswitchinterval(interval)
        assert pools == [3] * 5 + [4] * 15  # B = 1 has three indices

    def test_pool_only_where_the_factor_is_missing(self, pools):
        S = _draw_covariances()["full"]
        p = LpExponent.finite(2)
        first = bootstrap.gpb_draws(S, p, 100, RngSeed(8))
        assert pools == [2]  # gpb_draws holds, so its pipeline re-enters the hold
        assert bootstrap.gpb_draws(S, p, 100, RngSeed(8)).samples.tobytes() == \
            first.samples.tobytes()
        assert pools == [2]  # a cached factor: W is known
        with held_by_another_thread():
            again = bootstrap.gpb_draws(CovMatrix(S.values), p, 100, RngSeed(8))
        assert again.samples.tobytes() == first.samples.tobytes()
        assert pools == [2]

    @pytest.mark.parametrize("kind", ["naive", "hard", "band", "corr_cv"])
    @pytest.mark.parametrize("square", [True, False], ids=["M=I", "M"])
    def test_run_test_draws_equal_gpb_draws(self, pools, lookahead_order, kind, square):
        # run_test's prepare step (estimate, conjugation, factorization) runs
        # beside the normals: its draws are gpb_draws' of M Sigma_hat M'
        n, d = 40, 30
        X = RngSeed(10).generator().standard_normal((n, d)) + RngSeed(11).generator(
            ).standard_normal((n, 1))
        M = np.eye(d) if square else RngSeed(12).generator().standard_normal((5, d))
        est = EstimatorSpec(kind, lam=0.2, ell=3, cv_folds=3)
        spec = inference.TestSpec(M=M, m0=np.zeros(M.shape[0]), p=LpExponent.log_dim(),
                                  alpha=0.05, estimator=est, B=1000, seed=RngSeed(13))
        Sigma = inference.estimate_covariance(X, est, spec.seed.child(1, 0))
        Omega = Sigma if square else CovMatrix(M @ Sigma.values @ M.T)
        want = bootstrap.gpb_draws(Omega, spec.p, spec.B, spec.seed.child(2))
        runs = []
        for mode in ("pooled", "serial") + LOOKAHEAD_ORDERS:
            pools.clear()
            with held_by_another_thread() if mode == "serial" else contextlib.nullcontext():
                if mode in LOOKAHEAD_ORDERS:
                    lookahead_order(mode)
                runs.append(run_test(X, spec))
            # CV's passes, where there is CV, then one pipeline; none serially
            if mode == "serial":
                assert pools == []
            else:
                assert pools[-1] == 2 and (len(pools) == 1 or kind == "corr_cv")
        for res in runs:
            assert res.distribution.samples.tobytes() == want.samples.tobytes()
            assert res.distribution.meta == want.meta
            assert (res.statistic, res.critical_value, res.p_value) == (
                runs[0].statistic, runs[0].critical_value, runs[0].p_value)

    @pytest.mark.parametrize("serial", [False, True])
    def test_not_psd_raises_and_releases(self, blas_at_two, pools, serial):
        # prepare (the factorization) raises its own error, and index 1 stops
        # drawing: no helper thread is left running
        before = threading.enumerate()
        for values, B in ((np.diag([1.0, -1.0, 2.0]), 100),
                          (np.diag(np.r_[-1.0, np.ones(199)]), 4097)):
            raised = []

            def draw():
                try:
                    bootstrap.gpb_draws(CovMatrix(values), LpExponent.finite(2), B, RngSeed(9))
                except ValueError as exc:
                    raised.append(exc)

            with contextlib.ExitStack() as stack:
                if serial:
                    stack.enter_context(held_by_another_thread())
                caller = threading.Thread(target=draw)  # so a hang fails the test
                caller.start()
                caller.join(30)
                assert not caller.is_alive()
            assert len(raised) == 1 and "not positive semi-definite" in str(raised[0])
            _no_thread_left(before)
        assert pools == ([] if serial else [2, 2])  # one pipeline each; no block after a failure
        assert blas_at_two() == 2
        got = []

        def take():
            with parallel.hold() as held:
                got.append((held, blas_at_two()))

        other = threading.Thread(target=take)
        other.start()
        other.join(10)
        assert not other.is_alive()
        assert got == [(True, 1)]
        assert blas_at_two() == 2

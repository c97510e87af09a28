"""The one thread pool of lpboot, for the harness's truth datasets and
replicates, for CV folds and for the bootstrap kernel's blocks, and the hold
on it: one lock plus an OpenBLAS thread pin.

At most one pool runs in the process. One reentrant lock decides it, and
hold() takes it without blocking and yields whether it did. Every hold that
takes the lock pins numpy's OpenBLAS to one thread and, on exit, also when
the body raises, restores the count it found and releases the lock; a hold
nested in the same thread's hold finds 1 and restores 1. A pool already
spreads its work over the cores, and OpenBLAS splitting every product over
the same cores would oversubscribe them. run_indexed starts a pool only in
a thread that holds the lock, re-entering the caller's hold where there is
one. The caller is one of the pool's workers: it takes indices beside the
pool's threads, on its warm caches and its own malloc arena. A call from a
pool's worker (the caller too, while it runs an index) or from any other
thread that finds the lock held runs its indices serially, so pools never
nest. So does every call where the OpenBLAS thread count cannot be pinned
(no bundled OpenBLAS: numpy on MKL, macOS and Windows wheels), where a pool
would run beside the BLAS's own threads: on 2 cores, with OpenBLAS hidden
and at two threads, CV at n = d = 200 took 60-148 ms per call pooled
against 61-75 ms serial, and a KS run 15-21 replicates/s against 22-23. A
child process forked by the holding thread re-enters the hold and starts
pools; one forked by another thread finds the lock held and runs serially.
Its output is the same either way.

Which calls hold, each in one hold():
- run_test (so also confidence_set and lpboot test), estimate_covariance,
  run_experiment, and the draws of gpb_draws, proxy_draws and gmb_draws:
  for their whole body;
- factorize_psd for its dpstrf, certificate and eigh fallback, and
  mvn_sample for its product, so also copula_sample and every
  CovMatrix.factor(); psd_project, cov_diagnostics and cov_error for their
  LAPACK call; cv_select_lambda for its passes;
- run_indexed: where it would start more than one worker, for its pool.
Two different jobs share a pool in one place, the bootstrap kernel's draws
from a row source whose W is not known yet (bootstrap._norm_draws): index 0
runs the source's prepare step (for run_test every estimate step after
CV's lambda-hat, the conjugation and the factorization; for gpb_draws and
proxy_draws of a covariance with no cached factor, the factorization) while
index 1 draws the first blocks' normals ahead, a whole block at a time
until W is known, and every later index is a block of rows to multiply
(its normals drawn by index 1, else by itself, once) and take the norms of.
Draws whose W is known (a cached factor, gmb_draws' centred data) run on
the calling thread, with no pool. A hold() on the pool's thread finds the
lock held, so a step there runs under the pin of the caller's hold.
Two reasons for the holds. OpenBLAS's helper thread: an OpenBLAS call on two
threads leaves it spinning for about 80 ms afterwards, whatever the count is
set to then, and it would take a core from a pool's workers (CV's folds, or
the draws' prepare step, normals and blocks) if the products before the pool
ran on two threads. And the bytes: from d of about 250 OpenBLAS on two
threads splits eigh and the products and changes their last bits, so only
calls that compute on one thread everywhere write the same bytes in a pool's
worker, in a serial run and at any BLAS thread count. The price is the
second BLAS thread where no pool runs: at n = 200, d = 1000 a naive,
hard or band run_test takes 40-47% longer on one thread than on two.

The module also loads numpy's bundled OpenBLAS once for ctypes calls: the
thread-count pin here, and lpboot.covariance's ssyevd, dpotrf_work and
dpstrf, which ctypes runs with the GIL released, so pool workers run them
at once.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_POOL = threading.RLock()  # held by the one thread that may start a pool
_INDEX = threading.local()  # .running is true while this thread runs a pool's index


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """The OpenBLAS bundled with numpy (scipy-openblas, 64-bit integers),
    loaded once, or None where numpy ships no such library."""
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                           "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


@functools.cache
def _openblas_function(name: str, restype, *argtypes):
    """The named function of that library with its C signature set, or None
    where there is no library or it lacks the symbol. ctypes releases the GIL
    while the function runs."""
    fn = getattr(_openblas(), name, None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, argtypes
    return fn


def _openblas_thread_calls():
    """(get, set) of the bundled OpenBLAS's thread count, or None where either
    is missing."""
    get = _openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    set_ = _openblas_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    return None if get is None or set_ is None else (get, set_)


@contextlib.contextmanager
def hold():
    """Take the pool's lock without blocking and yield whether this thread
    holds it. A hold that takes the lock pins the bundled OpenBLAS to one
    thread and, on exit, restores the count it found and releases the lock,
    also when the body raises."""
    if not _POOL.acquire(blocking=False):
        yield False
        return
    calls = saved = None
    try:
        if calls := _openblas_thread_calls():
            saved = calls[0]()
            calls[1](1)
        yield True
    finally:
        if saved is not None:
            calls[1](saved)
        _POOL.release()


def run_indexed(worker, count: int, threads: int) -> list:
    """[worker(i) for i in range(count)] on a pool of min(threads, count,
    usable cores) workers, results in index order: the caller and one thread
    fewer, each taking the lowest index not yet started. When an index
    raises, no further index starts, and the first exception propagates once
    the started ones have ended. With one worker, inside a pool's worker,
    while another thread holds the pool, or where the BLAS thread count
    cannot be pinned, the call runs serially."""
    workers = min(threads, count, _available_cores())
    if workers < 2 or getattr(_INDEX, "running", False) or _openblas_thread_calls() is None:
        return [worker(i) for i in range(count)]
    with hold() as held:
        if not held:
            return [worker(i) for i in range(count)]
        results, failed, lock = [None] * count, [], threading.Lock()
        indices = iter(range(count))

        def take() -> None:
            _INDEX.running = True
            try:
                while not failed:
                    with lock:
                        i = next(indices, None)
                    if i is None:
                        return
                    try:
                        results[i] = worker(i)
                    except BaseException as exc:  # re-raised on the caller below
                        failed.append(exc)
            finally:
                _INDEX.running = False

        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            helpers = [pool.submit(take) for _ in range(workers - 1)]
            take()
        for helper in helpers:
            helper.result()
        if failed:
            raise failed[0]
        return results

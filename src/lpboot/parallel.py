"""The one thread pool of lpboot, for the harness's truth datasets and
replicates and for CV folds, and the hold on it: one lock plus an OpenBLAS
thread pin.

At most one pool runs in the process. One reentrant lock decides it, and
hold(when) takes it without blocking where when is true; with when false it
takes nothing and yields False. Every hold that takes the lock pins numpy's
OpenBLAS to one thread and, on exit, also when the body raises, restores the
count it found and releases the lock; a hold nested in the same thread's
hold finds 1 and restores 1. A pool already spreads its work over the cores,
and OpenBLAS splitting every product over the same cores would oversubscribe
them. run_indexed starts a pool only in a thread that holds the lock,
re-entering the caller's hold where there is one. A call that finds the lock
held by another thread, a pool's worker or any other, runs its indices
serially, so pools never nest. A child process forked by the holding thread
re-enters the hold and starts pools; one forked by another thread finds the
lock held and runs serially. Its output is the same either way.

The calls that run BLAS on their own thread before or after a pool hold for
their whole body, each stating when in one hold(<condition>): run_test and
estimate_covariance with corr_cv, run_experiment with harness threads or CV,
and run_indexed for its own pool. The reason is OpenBLAS's helper thread: an
OpenBLAS call on two threads leaves it spinning for about 80 ms afterwards,
whatever the count is set to then, and it would take a core from the pool's
workers if the products before the pool ran on two threads. The calls that
start no pool keep the BLAS threads they find.

The module also loads numpy's bundled OpenBLAS once for ctypes calls: the
thread-count pin here, and LAPACK eigenvalues for lpboot.covariance, which
ctypes computes with the GIL released, so pool workers run them at once.
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
def hold(when: bool = True):
    """Where when is true, take the pool's lock without blocking and yield
    whether this thread holds it. A hold that takes the lock pins the bundled
    OpenBLAS to one thread and, on exit, restores the count it found and
    releases the lock, also when the body raises. Where when is false, take
    no lock, leave the BLAS count alone and yield False."""
    if not (when and _POOL.acquire(blocking=False)):
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
    usable cores) threads, results in index order; the caller waits. When an
    index raises, the indices not yet started are cancelled and the exception
    propagates once the started ones have ended. With one worker, or while
    another thread holds the pool, the call runs serially."""
    workers = min(threads, count, _available_cores())
    with hold(workers > 1) as held:
        if not held:
            return [worker(i) for i in range(count)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, range(count)))

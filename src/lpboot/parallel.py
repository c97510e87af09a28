"""The one thread pool of lpboot, for the harness's truth datasets and
replicates and for CV folds, and the OpenBLAS thread pin it holds while it
runs.

At most one pool runs in the process. One lock decides it: the call that
takes the lock starts the pool and pins numpy's OpenBLAS to one thread, since
the pool already spreads its work over the cores and OpenBLAS splitting every
product over the same cores would oversubscribe them; it restores the count
it found and releases the lock when the pool ends. A call that finds the lock
held, from a pool's worker or from any other thread, runs its indices
serially, so pools never nest. A child process forked while a pool runs
inherits the held lock and runs serially too; its output is the same.

The module also loads numpy's bundled OpenBLAS once for ctypes calls: the
thread-count pin here, and LAPACK eigenvalues for lpboot.covariance, which
ctypes computes with the GIL released, so pool workers run them at once.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_POOL = threading.Lock()  # held while the pool runs


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


def run_indexed(worker, count: int, threads: int) -> list:
    """[worker(i) for i in range(count)] on a pool of min(threads, count,
    usable cores) threads, results in index order; the caller waits. When an
    index raises, the indices not yet started are cancelled and the exception
    propagates once the started ones have ended. While another pool runs, the
    call runs serially."""
    workers = min(threads, count, _available_cores())
    if workers <= 1 or not _POOL.acquire(blocking=False):
        return [worker(i) for i in range(count)]
    saved = None
    try:
        calls = _openblas_thread_calls()
        if calls:
            saved = calls[0]()
            calls[1](1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, range(count)))
    finally:
        if saved is not None:
            calls[1](saved)
        _POOL.release()

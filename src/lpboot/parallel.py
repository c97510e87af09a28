"""The one thread pool of lpboot, for the harness's truth datasets and
replicates and for CV folds, and the OpenBLAS thread pin it holds while it
runs."""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None where numpy ships no such library or it lacks either symbol."""
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                           "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneBlasThread:
    """Context that holds numpy's OpenBLAS at one thread.

    The pool already spreads its work over the cores; OpenBLAS splitting
    every product over the same cores oversubscribes them. The count is
    process-wide, so overlapping pools share one entry count: the first to
    enter pins it, and the last to leave restores what the first found. The
    library is looked up on first entry, not at import.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            calls = _openblas_thread_calls()
            if calls and self._depth == 0:
                self._saved = calls[0]()
                calls[1](1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            calls = _openblas_thread_calls()
            if calls and self._depth == 0:
                calls[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()
_pool_worker = threading.local()  # .active: this thread is a pool worker


def run_indexed(worker, count: int, threads: int) -> list:
    """[worker(i) for i in range(count)] on a pool of min(threads, count,
    usable cores) threads, results in index order; the caller waits. When an
    index raises, the indices not yet started are cancelled and the exception
    propagates. A call from inside a pool's worker runs serially, so pools
    never nest."""
    workers = min(threads, count, _available_cores())
    if workers <= 1 or getattr(_pool_worker, "active", False):
        return [worker(i) for i in range(count)]

    def task(i):
        _pool_worker.active = True
        return worker(i)

    with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(count)))

"""Fixtures shared by the test modules."""

import ctypes
import glob
import os

import numpy as np
import pytest


def openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, looked up
    apart from lpboot's own handle; None where numpy ships no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
        get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
        return get, set_
    return None


@pytest.fixture
def blas_at_two():
    """The BLAS thread getter, with the count set to 2 for the test and put
    back afterwards."""
    calls = openblas_threads()
    if calls is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    get, set_ = calls
    before = get()
    set_(2)
    yield get
    set_(before)

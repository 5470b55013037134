"""One BLAS thread while a result's bits depend on the thread count.

OpenBLAS splits a large GEMM over its threads, and the split moves the
product's last bits, so a run's bytes would depend on how many threads
OpenBLAS starts (``OPENBLAS_NUM_THREADS``, or the core count).  numpy's
wheels bundle scipy-openblas, whose thread count can be set at run time
through two exported functions; ``one_thread`` sets it to one for the
duration of a block.  Where numpy has no such library (another BLAS
build), it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["one_thread"]


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled scipy-openblas,
    or None where the library or either symbol is missing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)  # the library numpy loaded: dlopen returns its handle
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# the blocks in ``one_thread`` now, and the count the first of them found
_lock = threading.Lock()
_holders = 0
_saved = 1


@contextmanager
def one_thread():
    """Hold OpenBLAS at one thread in this process while the block runs.
    The count is process-wide: the first of any nested or concurrent
    blocks sets it, the last one to leave restores the count the first
    found, and children forked inside a block inherit it."""
    global _holders, _saved
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _lock:
        if _holders == 0:
            _saved = get()
            set_(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                set_(_saved)

"""Thread policy: the runtime's workers, one OpenBLAS thread inside them.

Parallelism in this library comes only from the workers of
:func:`hssulv.taskdag.run_graph`, the one runtime that both construction
and factorization run on, as in a runtime system that owns the cores and
runs each task as a sequential kernel.  :func:`worker_count` gives the
default worker count: the cores this process may use.  numpy and scipy
each load their own OpenBLAS (numpy's serves matmul, scipy's serves
LAPACK), and each would otherwise start threads of its own that compete
with the workers and with each other.

Every public compute entry point runs under :func:`single_blas_thread`.
On entry both pools are set to one thread; on exit the caller's counts
come back, also when the call raises.  Calls nest and may come from
several threads at once: a depth counter under a lock makes only the
outermost call save and restore.  Results therefore do not depend on the
caller's ``OPENBLAS_NUM_THREADS``.  When no OpenBLAS pool is loaded the
policy does nothing and :func:`blas_threads` returns ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import os
import threading
from pathlib import Path

# (package, library file pattern in the wheel's ``<package>.libs``,
# suffix of the run-time thread-count functions)
_POOLS = (
    ("numpy", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "libscipy_openblas-*.so", ""),
)


@functools.cache
def _pools() -> tuple:
    """(name, get, set) of each OpenBLAS pool already loaded by its package."""
    found = []
    for name, pattern, suffix in _POOLS:
        site = Path(importlib.import_module(name).__file__).resolve().parent.parent
        for path in sorted(glob.glob(str(site / f"{name}.libs" / pattern))):
            try:
                # RTLD_NOLOAD: only a library the process already loaded answers.
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((name, get, set_))
            break
    return tuple(found)


# The thread counts are process-wide, so the call depth is too.
_lock = threading.Lock()
_depth = 0
_saved: tuple = ()


def _enter():
    global _depth, _saved
    with _lock:
        if _depth == 0:
            pools = _pools()
            _saved = tuple(get() for _, get, _ in pools)
            for _, _, set_ in pools:
                set_(1)
        _depth += 1


def _exit():
    global _depth
    with _lock:
        _depth -= 1
        if _depth == 0:
            for (_, _, set_), count in zip(_pools(), _saved):
                set_(count)


def single_blas_thread(fn):
    """Run ``fn`` with every OpenBLAS pool at one thread."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _enter()
        try:
            return fn(*args, **kwargs)
        finally:
            _exit()

    return wrapper


def worker_count(workers: int | None) -> int:
    """``workers``, or the number of cores this process may use if ``None``."""
    if workers is None:
        return len(os.sched_getaffinity(0))
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


@single_blas_thread
def blas_threads() -> dict | None:
    """Thread count in effect inside library calls, per OpenBLAS pool
    (``{"numpy": 1, "scipy": 1}``), or ``None`` when no pool was found."""
    return {name: get() for name, get, _ in _pools()} or None

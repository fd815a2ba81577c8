"""The BLAS thread policy: one OpenBLAS thread inside every library call,
the caller's counts back after it, and bits that do not depend on the
caller's ``OPENBLAS_NUM_THREADS``."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import indefinite_root_hss
from hssulv import (KernelEvaluationError, KernelSpec, NotPositiveDefiniteError,
                    build_blr2, build_dag, build_hss, construct_error, execute,
                    generate_grid, matvec, reconstruct_check, run_single,
                    ulv_factor_blr2, ulv_factor_hss, ulv_solve)
from hssulv import _threads
from hssulv._threads import _pools, blas_threads, single_blas_thread
from hssulv.bench import ExperimentConfig

SRC = Path(__file__).resolve().parents[1] / "src"

# Operator, factors, a solution and a block solution of both builders,
# hashed in one stream.
DIGEST_SCRIPT = """
import hashlib
import numpy as np
from hssulv import (KernelSpec, build_blr2, build_dag, build_hss, execute,
                    generate_grid, ulv_solve)

spec, ps = KernelSpec("matern"), generate_grid(1024)
b = np.random.default_rng(0).standard_normal(1024)
block = np.random.default_rng(1).standard_normal((1024, 4))
digest = hashlib.sha256()
for build in (build_hss, build_blr2):
    h = build(spec, ps, 256, 100)
    f, _ = execute(build_dag(h), h, workers=2)
    arrays = [*h.leaf_diag, *(h.bases[k].q for k in sorted(h.bases)),
              *(h.coupling[k] for k in sorted(h.coupling)), f.root_chol,
              *(a for level in sorted(f.levels) for nf in f.levels[level]
                for a in (nf.l_rr, nf.l_sr)),
              ulv_solve(f, b), ulv_solve(f, block)]
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
print(digest.hexdigest())
"""

needs_pools = pytest.mark.skipif(not _pools(), reason="no OpenBLAS pool loaded")

# The caller's count during a test: anything but the policy's one thread.
CALLER = 2


def _digest(threads: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env,
                         stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip()


def _counts() -> dict:
    return {name: get() for name, get, _ in _pools()}


@pytest.fixture
def caller_threads():
    """Set every pool to ``CALLER`` threads; restore the original after."""
    before = [get() for _, get, _ in _pools()]
    for _, _, set_ in _pools():
        set_(CALLER)
    yield {name: CALLER for name, _, _ in _pools()}
    for (_, _, set_), count in zip(_pools(), before):
        set_(count)


@pytest.fixture(scope="module")
def small():
    spec, ps = KernelSpec("yukawa"), generate_grid(512)
    h = build_hss(spec, ps, 128, 30)
    return {"spec": spec, "ps": ps, "h": h, "m": build_blr2(spec, ps, 128, 30),
            "f": ulv_factor_hss(h), "b": np.ones(512),
            "block": np.ones((512, 4))}


ENTRY_POINTS = {
    "build_hss": lambda s: build_hss(s["spec"], s["ps"], 128, 30),
    "build_blr2": lambda s: build_blr2(s["spec"], s["ps"], 128, 30),
    "execute": lambda s: execute(build_dag(s["h"]), s["h"], workers=2),
    "ulv_factor_hss": lambda s: ulv_factor_hss(s["h"]),
    "ulv_factor_blr2": lambda s: ulv_factor_blr2(s["m"]),
    "ulv_solve": lambda s: ulv_solve(s["f"], s["b"]),
    "ulv_solve_block": lambda s: ulv_solve(s["f"], s["block"]),
    "matvec": lambda s: matvec(s["h"], s["b"]),
    "construct_error": lambda s: construct_error(s["h"], s["spec"], s["ps"], 0),
    "reconstruct_check": lambda s: reconstruct_check(s["f"], s["h"]),
    "run_single": lambda s: run_single(ExperimentConfig(s["spec"], 512, 128, 30)),
}


def test_bits_independent_of_caller_blas_threads():
    assert _digest("1") == _digest("2")


@needs_pools
def test_one_thread_inside_library_calls(caller_threads):
    assert blas_threads() == {name: 1 for name in caller_threads}
    assert _counts() == caller_threads


@needs_pools
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_caller_count_restored(name, small, caller_threads):
    ENTRY_POINTS[name](small)
    assert _counts() == caller_threads


@needs_pools
def test_caller_count_restored_after_raise(caller_threads):
    broken = indefinite_root_hss()
    assert _counts() == caller_threads
    with pytest.raises(NotPositiveDefiniteError, match="root block"):
        ulv_factor_hss(broken)
    assert _counts() == caller_threads
    with pytest.raises(NotPositiveDefiniteError, match="root block"):
        execute(build_dag(broken), broken, workers=2)
    assert _counts() == caller_threads


@pytest.mark.parametrize("build", [build_hss, build_blr2])
def test_build_task_failure_raised_as_is(build, caller_threads):
    # sigma = 600 overflows the Bessel evaluation inside a leaf task; the
    # task's own error names the distance
    before = set(threading.enumerate())
    with pytest.raises(KernelEvaluationError, match="at distance"):
        build(KernelSpec("matern", sigma=600.0), generate_grid(1024), 256, 100, workers=2)
    assert _counts() == caller_threads
    assert set(threading.enumerate()) <= before


@needs_pools
def test_nested_calls_restore_once(caller_threads):
    seen = []

    @single_blas_thread
    def inner():
        seen.append(_counts())

    @single_blas_thread
    def outer():
        inner()
        seen.append(_counts())

    outer()
    ones = {name: 1 for name in caller_threads}
    assert seen == [ones, ones]
    assert _counts() == caller_threads


@needs_pools
def test_concurrent_callers_restore_once(caller_threads):
    # A second caller enters and leaves while the first is still inside:
    # the first keeps one thread, and the caller's count comes back once
    # both have left.
    entered, release = threading.Event(), threading.Event()
    inside = []

    @single_blas_thread
    def long_call():
        entered.set()
        release.wait(10)
        inside.append(_counts())

    worker = threading.Thread(target=long_call)
    worker.start()
    assert entered.wait(10)
    blas_threads()
    release.set()
    worker.join(10)
    assert not worker.is_alive()
    assert inside == [{name: 1 for name in caller_threads}]
    assert _counts() == caller_threads


@needs_pools
def test_many_concurrent_callers_stress(caller_threads):
    # More callers than cores, switching often: a lost update of the
    # depth would let one caller restore while another is still inside.
    ones = {name: 1 for name in caller_threads}
    wrong = []

    @single_blas_thread
    def call():
        if _counts() != ones:
            wrong.append(_counts())

    def loop():
        for _ in range(2000):
            call()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=loop) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == []
    assert _threads._depth == 0
    assert _counts() == caller_threads

"""The library names that the benchmark harness in ``perfbench/`` wraps,
and the operator bytes it reports.

``perfbench/tracing.py`` times the library by swapping module attributes
of ``hssulv`` for wrappers, and the library must keep calling the wrapped
functions through those attributes.  A renamed or moved function makes a
per-layer span silently vanish from the benchmark; this test runs both
pipelines the benchmark drives, at N = 512, and fails instead.  The
benchmark's ``compressed_mb`` sums the arrays of the operator itself, so
it must read what ``HssMatrix.nbytes`` says the library stores.
"""

import sys
from pathlib import Path

import pytest

from hssulv import KernelSpec, construct, factor, geometry, taskdag

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("build", [construct.build_hss, construct.build_blr2])
def test_compressed_bytes_are_the_operator_bytes(workloads, build):
    op = build(KernelSpec("yukawa"), geometry.generate_grid(512), 256, 100)
    assert workloads.compressed_bytes(op) == op.nbytes


def test_benchmark_boundaries_fire(tracing):
    tracer = tracing.Tracer()
    tracing.install_boundaries(tracer, 512, 256)
    try:
        spec = KernelSpec("yukawa")
        ps = geometry.generate_grid(512)
        m = construct.build_blr2(spec, ps, 256, 100)
        factor.ulv_factor_blr2(m)
        h = construct.build_hss(spec, ps, 256, 100)
        taskdag.execute(taskdag.build_dag(h), h, 2)
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans}
    # The root is factored by RootFactor tile tasks, which call no wrapped
    # function: factor.cholesky stays for the wrapper to find, and the
    # "linalg.cholesky" span no longer fires.
    assert "linalg.cholesky" not in names
    assert {"linalg.partial_cholesky", "kernels.kernel_matrix",
            "construct.build_shared_basis", "construct.build_blr2",
            "construct.build_hss", "factor.ulv_factor_blr2", "taskdag.build_dag",
            "taskdag.execute"} <= names
    assert not hasattr(factor.partial_cholesky, "__wrapped__")

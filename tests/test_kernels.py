import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import gamma, k1, kv

from hssulv import (KernelEvaluationError, KernelSpec, generate_grid,
                    kernel_matrix, kernels)

# Arbitrary-precision reference for the matern formula at d = mu = 0.03
# (mpmath, 40 digits); recomputed live below when mpmath is available.
MATERN_AT_003 = 0.48025248600998968446


def kernel_eval(spec, x, y):
    """Single kernel entry ``f(x, y)``."""
    return float(kernel_matrix(spec, [x], [y])[0, 0])


def test_laplace_zero_distance():
    spec = KernelSpec("laplace2d")
    assert kernel_eval(spec, (0.2, 0.3), (0.2, 0.3)) == pytest.approx(
        20.72326583694641, rel=1e-12)


def test_yukawa_zero_distance():
    spec = KernelSpec("yukawa")
    assert kernel_eval(spec, (0.5, 0.5), (0.5, 0.5)) == pytest.approx(
        9.99999999e8, rel=1e-9)


def test_matern_zero_distance_is_variance():
    spec = KernelSpec("matern", sigma=1.3)
    assert kernel_eval(spec, (0.1, 0.1), (0.1, 0.1)) == pytest.approx(1.69, rel=1e-13)


def test_matern_against_high_precision_reference():
    spec = KernelSpec("matern")
    got = kernel_eval(spec, (0.0, 0.0), (0.03, 0.0))
    assert got == pytest.approx(MATERN_AT_003, rel=1e-13)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    sigma, mu, rho, d = map(mp.mpf, ("1", "0.03", "0.5", "0.03"))
    live = sigma**2 / (2 ** (rho - 1) * mp.gamma(rho)) \
        * (d / mu) ** sigma * mp.besselk(sigma, d / mu)
    assert got == pytest.approx(float(live), rel=1e-13)


@pytest.mark.parametrize("kind", ["laplace2d", "yukawa", "matern"])
def test_kernel_symmetry_exact(kind):
    spec = KernelSpec(kind)
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = rng.random(2), rng.random(2)
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


@pytest.mark.parametrize("kind", ["laplace2d", "yukawa", "matern"])
def test_kernel_finite_on_grid(kind):
    spec = KernelSpec(kind)
    pts = generate_grid(64).points
    assert np.all(np.isfinite(kernel_matrix(spec, pts, pts)))


def test_dense_block_diagonal_is_symmetric_bitwise():
    spec = KernelSpec("laplace2d")
    ps = generate_grid(64)
    block = kernel_matrix(spec, ps.points[:32], ps.points[:32])
    assert np.array_equal(block, block.T)


def test_dense_block_transpose_identity_exact():
    spec = KernelSpec("matern")
    ps = generate_grid(64)
    a = kernel_matrix(spec, ps.points[0:16], ps.points[32:64])
    b = kernel_matrix(spec, ps.points[32:64], ps.points[0:16])
    assert np.array_equal(a, b.T)


def test_dense_block_single_matern_point():
    spec = KernelSpec("matern")
    ps = generate_grid(16)
    assert np.array_equal(kernel_matrix(spec, ps.points[3:4], ps.points[3:4]), [[1.0]])


def test_yukawa_matrix_is_spd():
    # Oracle: dense eigensolve of the full N=64 matrix.
    spec = KernelSpec("yukawa")
    pts = generate_grid(64).points
    a = kernel_matrix(spec, pts, pts)
    assert np.linalg.eigvalsh(a).min() > 0


def _matern_by_kv(spec, x, y):
    # the general-order formula, with the zero-distance branch
    d = cdist(x, y)
    t = d / spec.mu
    pref = spec.sigma**2 / (2.0 ** (spec.rho - 1.0) * gamma(spec.rho))
    with np.errstate(invalid="ignore"):
        vals = pref * t**spec.sigma * kv(spec.sigma, t)
    return np.where(d > 0, vals, spec.sigma**2)


def test_matern_order_one_fast_path_matches_kv():
    spec = KernelSpec("matern")
    pts = generate_grid(4096).points
    got = kernel_matrix(spec, pts[:256], pts)
    ref = _matern_by_kv(spec, pts[:256], pts)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_matern_order_one_in_place_bitwise():
    # evaluated in place, the product keeps the order of pref * t * k1(t)
    spec = KernelSpec("matern", mu=0.07, rho=0.8)
    pts = generate_grid(4096).points
    d = cdist(pts[:256], pts)
    t = d / spec.mu
    pref = spec.sigma**2 / (2.0 ** (spec.rho - 1.0) * gamma(spec.rho))
    with np.errstate(over="ignore", invalid="ignore"):
        ref = np.where(d > 0, pref * t * k1(t), spec.sigma**2)
    assert np.array_equal(kernel_matrix(spec, pts[:256], pts), ref)


@pytest.mark.parametrize("sigma", [1.0, 1.5])
def test_matern_non_finite_names_distance(sigma):
    with pytest.raises(KernelEvaluationError, match=r"non-finite at distance .*inf"):
        kernel_matrix(KernelSpec("matern", sigma=sigma), [[0.0, 0.0]], [[np.inf, 0.0]])


def test_matern_other_orders_use_kv_bitwise():
    spec = KernelSpec("matern", sigma=1.5)
    pts = generate_grid(4096).points
    got = kernel_matrix(spec, pts[:256], pts)
    assert np.array_equal(got, _matern_by_kv(spec, pts[:256], pts))


def test_bessel_overflow_reports_distance():
    # huge order overflows kv; the error must name the offending distance
    spec = KernelSpec("matern", sigma=600.0)
    with pytest.raises(KernelEvaluationError, match="0.5"):
        kernel_eval(spec, (0.0, 0.0), (0.5, 0.0))


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        KernelSpec("gauss")
    with pytest.raises(ValueError, match="positive"):
        KernelSpec("matern", mu=0.0)
    with pytest.raises(ValueError, match="positive"):
        KernelSpec("laplace2d", epsilon=-1e-9)


@pytest.mark.parametrize("kind", ["laplace2d", "yukawa", "matern"])
def test_kernel_matrix_leaves_inputs_unchanged(kind):
    pts = generate_grid(256).points
    x, y = pts[:64].copy(), pts.copy()
    kernel_matrix(KernelSpec(kind), x, y)
    assert np.array_equal(x, pts[:64]) and np.array_equal(y, pts)


@pytest.mark.parametrize("kind", ["yukawa", "matern"])
def test_chunked_evaluation_matches_one_pass(kind, monkeypatch):
    # the in-place evaluation works through the block a few rows at a time
    spec = KernelSpec(kind)
    pts = generate_grid(1024).points
    whole = kernel_matrix(spec, pts[:256], pts)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 1000)
    assert np.array_equal(kernel_matrix(spec, pts[:256], pts), whole)

"""Properties of the build and the one factorization path over random
trees of both formats.

For a random kernel, leaf size, grid size and rank cap, the compressed
operator is symmetric, stores each sibling coupling once (``i < j``) and
is bitwise independent of the build's worker count and scheduling order,
its leaf couplings from skeleton points stay close to the projections of
the exact blocks next to what those projections leave out,
the factors of ``ulv_factor_hss`` rebuild it exactly, and the executor
reproduces them bitwise for any worker count and scheduling order.  A
block solve agrees column by column with single solves and inverts the
operator's ``matvec``.  A symmetric block packs to its lower triangle
and unpacks bitwise, and ``matvec`` over packed leaf diagonals agrees
with applying the dense blocks.  The tiled symmetry check that guards every
Cholesky decides as the dense formula does.  The root's tiled Cholesky
matches a dense one, bitwise the same for any worker count and
scheduling order.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import factor_root, factors_equal, leaf_block, packed, random_spd, unpacked
from hssulv import (KERNEL_KINDS, KernelSpec, NotPositiveDefiniteError,
                    build_blr2, build_dag, build_hss, execute, generate_grid,
                    kernel_matrix, matvec, reconstruct_check, ulv_factor_hss,
                    ulv_solve)
from hssulv.factor import ROOT_TILE
from hssulv.linalg import SYMMETRY_RTOL, TILE, _require_symmetric, pack_lower

# Criterion 2's solve bounds at N = 4096, nleaf 256, max_rank 100.
SOLVE_BOUNDS = {"laplace2d": 1e-8, "yukawa": 1e-11, "matern": 1e-9}

# Every grid size up to 1024: m**2 and 2 * m**2 points.
GRID_SIZES = sorted({m * m for m in range(1, 33)} | {2 * m * m for m in range(1, 23)})


@st.composite
def trees(draw):
    """(builder, spec, n, nleaf, max_rank) with nleaf < n <= 1024: either
    n = nleaf * 2**L, or any grid size, whose halves may be odd and whose
    last BLR2 block may be short."""
    build = draw(st.sampled_from([build_hss, build_blr2]))
    spec = KernelSpec(draw(st.sampled_from(KERNEL_KINDS)),
                      alpha=draw(st.floats(0.5, 4.0)),
                      mu=draw(st.floats(0.02, 0.1)))
    nleaf = draw(st.sampled_from([16, 32, 64, 128]))
    n = draw(st.one_of(
        st.integers(1, (1024 // nleaf).bit_length() - 1).map(lambda levels: nleaf << levels),
        st.sampled_from([size for size in GRID_SIZES if size > nleaf])))
    max_rank = draw(st.integers(1, nleaf))
    return build, spec, n, nleaf, max_rank


@settings(max_examples=60, deadline=None)
@given(tree=trees(), workers=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
def test_one_path_exact_and_schedule_independent(tree, workers, seed):
    build, spec, n, nleaf, max_rank = tree
    op = build(spec, generate_grid(n), nleaf, max_rank)
    graph = build_dag(op)
    try:
        f = ulv_factor_hss(op)
    except NotPositiveDefiniteError as err:
        # A tiny rank cap can cost the compressed operator its definiteness;
        # the failure names where it happened, under any schedule.
        event("not positive definite")
        assert "node" in str(err) or "root block" in str(err)
        assert "skeleton rank" in str(err)
        with pytest.raises(NotPositiveDefiniteError):
            execute(graph, op, workers=workers, shuffle_seed=seed)
        return
    assert reconstruct_check(f, op) <= 1e-10
    shuffled, _ = execute(graph, op, workers=workers, shuffle_seed=seed)
    assert factors_equal(f, shuffled)


@settings(max_examples=30, deadline=None)
@given(tree=trees(), workers=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
def test_build_schedule_independent(tree, workers, seed):
    build, spec, n, nleaf, max_rank = tree
    ps = generate_grid(n)
    ref = build(spec, ps, nleaf, max_rank, workers=1)
    op = build(spec, ps, nleaf, max_rank, workers=workers, shuffle_seed=seed)
    assert op.max_level == ref.max_level
    assert all(np.array_equal(a, b) for a, b in zip(op.leaf_diag, ref.leaf_diag))
    assert op.bases.keys() == ref.bases.keys()
    for key, basis in ref.bases.items():
        assert op.bases[key].redundant_dim == basis.redundant_dim
        assert np.array_equal(op.bases[key].q, basis.q)
    # One coupling per unordered sibling pair, stored as (level, i, j), i < j.
    nb = len(op.leaf_diag)
    if build is build_blr2:
        pairs = {(1, i, j) for j in range(nb) for i in range(j)}
        assert len(pairs) == nb * (nb - 1) // 2
    else:
        pairs = {(level, 2 * p, 2 * p + 1)
                 for level in range(1, op.max_level + 1) for p in range(1 << (level - 1))}
        assert len(pairs) == nb - 1
    assert op.coupling.keys() == ref.coupling.keys() == pairs
    # the build's side entries land in schedule order; the operator's dicts do not
    assert list(op.bases) == list(ref.bases) and list(op.coupling) == list(ref.coupling)
    assert all(np.array_equal(op.coupling[k], c) for k, c in ref.coupling.items())


@settings(max_examples=40, deadline=None)
@given(tree=trees(), lossless=st.booleans())
def test_leaf_couplings_from_skeleton_points(tree, lossless):
    # A leaf pair's coupling is read from the kernel at skeleton points,
    # C_i A(sk_i, sk_j) C_j^T.  It differs from the projection of the
    # exact block, U_i^T A_ij U_j, by a small part of what that projection
    # leaves out of the block (at most 0.6% over 250 random trees; against
    # ||A||_F it reached 2.7e-6 at matern N = 1024, nleaf 128, rank 3), and
    # is that projection to rounding when max_rank = nleaf, where the
    # skeleton points are all the leaf's.
    build, spec, n, nleaf, max_rank = tree
    if lossless:
        max_rank = nleaf
    ps = generate_grid(n)
    op = build(spec, ps, nleaf, max_rank)
    dense = kernel_matrix(spec, ps.points, ps.points)
    rounding = 1e-13 * np.linalg.norm(dense)
    offs = op.tree.offsets[-1]
    for (level, i, j), s in op.coupling.items():
        if level == op.max_level:
            u_i, u_j = op.bases[(level, i)].skeleton, op.bases[(level, j)].skeleton
            block = dense[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
            exact = u_i.T @ block @ u_j
            left_out = np.linalg.norm(block - u_i @ exact @ u_j.T)
            err = np.linalg.norm(s - exact)
            assert err <= (rounding if lossless else 0.05 * left_out + rounding)


@settings(max_examples=30, deadline=None)
@given(tree=trees())
def test_compressed_operator_symmetric(tree):
    build, spec, n, nleaf, max_rank = tree
    dense = matvec(build(spec, generate_grid(n), nleaf, max_rank), np.eye(n))
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**16))
def test_pack_round_trip_bitwise(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    a = np.tril(a) + np.tril(a, -1).T
    p = packed(a)
    assert p.shape == (n * (n + 1) // 2,)
    assert np.array_equal(unpacked(p, n), a)
    # a symmetric block's transpose, a column-major view of a C-ordered
    # array, packs to the same triangle
    assert np.array_equal(pack_lower(np.ascontiguousarray(a).T), p)


@settings(max_examples=30, deadline=None)
@given(tree=trees(), k=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_matvec_matches_dense_diagonal_reference(tree, k, seed):
    # the off-diagonal part from the same operator with zero diagonals,
    # plus every unpacked leaf block applied densely
    build, spec, n, nleaf, max_rank = tree
    op = build(spec, generate_grid(n), nleaf, max_rank)
    x = np.random.default_rng(seed).standard_normal((n, k))
    zero = dataclasses.replace(op, leaf_diag=tuple(np.zeros_like(d) for d in op.leaf_diag))
    want = matvec(zero, x)
    offs = op.tree.offsets[-1]
    for i in range(len(offs) - 1):
        want[offs[i]:offs[i + 1]] += leaf_block(op, i) @ x[offs[i]:offs[i + 1]]
    got = matvec(op, x)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(KERNEL_KINDS), k=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_block_solve_matches_single_solves(cache, kind, k, seed):
    h = cache.hss(kind, 4096, 256, 100)
    f = cache.factors(kind, 4096, 256, 100)
    b = np.random.default_rng(seed).standard_normal((4096, k))
    x = ulv_solve(f, b)
    assert x.shape == (4096, k)
    for j in range(k):
        single = ulv_solve(f, b[:, j])
        assert np.linalg.norm(x[:, j] - single) <= 1e-14 * np.linalg.norm(single)
    recovered = ulv_solve(f, matvec(h, b))
    err = np.linalg.norm(recovered - b, axis=0) / np.linalg.norm(b, axis=0)
    assert err.max() <= SOLVE_BOUNDS[kind]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3 * TILE + 5), order=st.sampled_from("CF"),
       ratio=st.floats(0.5, 2.0), data=st.data())
def test_tiled_symmetry_check_decides_as_dense_formula(n, order, ratio, data):
    # one entry pushed off symmetry by ratio x the threshold, so the
    # examples fall on both sides of it
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    a = rng.standard_normal((n, n))
    a = np.asarray(a + a.T, order=order)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    a[i, j] += ratio * 10 * SYMMETRY_RTOL * np.abs(a).max()
    dense = np.abs(a - a.T).max() > 10 * SYMMETRY_RTOL * np.abs(a).max()
    event("asymmetric" if dense else "symmetric")
    try:
        _require_symmetric(a, "a")
        tiled = False
    except ValueError:
        tiled = True
    assert tiled == dense


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([1, ROOT_TILE - 1, ROOT_TILE, ROOT_TILE + 1, 3 * ROOT_TILE + 17]),
       seed=st.integers(0, 2**16), shuffle_seed=st.integers(0, 2**16))
def test_root_tiles_match_dense_cholesky_for_any_schedule(n, seed, shuffle_seed):
    a = random_spd(np.random.default_rng(seed), n)
    low = factor_root(a)
    want = np.linalg.cholesky(a)
    assert np.linalg.norm(low - want) <= 1e-13 * np.linalg.norm(want)
    assert not np.triu(low, 1).any()
    for workers in (1, 2, 3):
        assert np.array_equal(factor_root(a, workers, shuffle_seed), low)

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import indefinite_root_hss, packed, packed_index, random_spd
from hssulv import (BlockBasis, HssMatrix, KernelSpec,
                    NotPositiveDefiniteError, build_blr2, build_hss,
                    diagonal_product, generate_grid, kernel_matrix, matvec,
                    merge_children, reconstruct_check, solve_error,
                    ulv_factor_blr2, ulv_factor_hss, ulv_solve)
from hssulv.construct import Tree
from hssulv.factor import FactorRun, root_tile_count
from hssulv.linalg import _failed_pivot_value
from hssulv.taskdag import _FACTOR_BODIES, build_dag, run_graph


def random_orthonormal_basis(rng, n, skeleton):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return BlockBasis(q, n - skeleton, skeleton)


def dense_solve(dense, b):
    return sla.cho_solve(sla.cho_factor(dense, lower=True), b)


class TestDiagonalProduct:
    def test_identity_basis_passthrough(self):
        rng = np.random.default_rng(0)
        d = random_spd(rng, 6)
        basis = BlockBasis(np.eye(6), 2, 4)
        assert np.array_equal(diagonal_product(d, basis), d)

    def test_identity_block_stays_identity(self):
        rng = np.random.default_rng(1)
        basis = random_orthonormal_basis(rng, 8, 3)
        out = diagonal_product(np.eye(8), basis)
        assert np.linalg.norm(out - np.eye(8)) <= 1e-13

    def test_spectrum_preserved(self):
        # Oracle: eigensolve; rotation is an orthogonal similarity.
        rng = np.random.default_rng(2)
        d = random_spd(rng, 8)
        basis = random_orthonormal_basis(rng, 8, 5)
        got = np.linalg.eigvalsh(diagonal_product(d, basis))
        want = np.linalg.eigvalsh(d)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11 * want.max())

    def test_dimension_mismatch(self):
        basis = BlockBasis(np.eye(4), 1, 3)
        with pytest.raises(ValueError, match="does not match"):
            diagonal_product(np.eye(5), basis)
        with pytest.raises(ValueError, match="does not fill an order-4 block"):
            diagonal_product(packed(np.eye(5)), basis)

    @pytest.mark.parametrize("n", [1, 5, 127, 128, 129, 200, 256, 300])
    def test_packed_block_matches_square(self, n):
        # one band, a short last band, several bands; each entry of Q^T D
        # is one dot product over the whole block either way
        rng = np.random.default_rng(n)
        d = random_spd(rng, n)
        d = np.tril(d) + np.tril(d, -1).T  # bitwise symmetric
        basis = random_orthonormal_basis(rng, n, max(n // 3, 1))
        want = diagonal_product(d, basis)
        got = diagonal_product(packed(d), basis)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestMergeChildren:
    def test_zero_coupling_is_block_diagonal(self):
        a, b = np.eye(2), 2 * np.eye(3)
        out = merge_children([2, 3], [a, b], {(0, 1): np.zeros((2, 3))})
        assert np.array_equal(out, sla.block_diag(a, b))

    def test_scalar_assembly(self):
        out = merge_children([1, 1], [np.array([[1.0]]), np.array([[3.0]])],
                             {(0, 1): np.array([[2.0]])})
        assert np.array_equal(out, [[1.0, 2.0], [2.0, 3.0]])

    def test_three_children_all_pairs(self):
        out = merge_children([1, 1, 1],
                             [np.array([[1.0]]), np.array([[2.0]]), np.array([[3.0]])],
                             {(0, 1): np.array([[4.0]]), (0, 2): np.array([[5.0]]),
                              (1, 2): np.array([[6.0]])})
        assert np.array_equal(out, [[1.0, 4.0, 5.0], [4.0, 2.0, 6.0], [5.0, 6.0, 3.0]])

    def test_block_is_f_ordered(self):
        # the root is factored in place in it
        out = merge_children([2, 3], [np.eye(2), 2 * np.eye(3)], {(0, 1): np.ones((2, 3))})
        assert out.flags.f_contiguous

    def test_windows_tile_the_whole_block(self):
        # windows that cut through children's blocks, each written from
        # the remainders of the children whose diagonal blocks it meets
        # alone, assemble the whole block bitwise
        rng = np.random.default_rng(5)
        dims = [3, 0, 5, 4, 2]
        remainders = [rng.standard_normal((d, d)) for d in dims]
        couplings = {(a, b): rng.standard_normal((dims[a], dims[b]))
                     for a in range(5) for b in range(a + 1, 5)}
        whole = merge_children(dims, remainders, couplings)
        offsets = np.cumsum([0] + dims)
        out = np.full_like(whole, np.nan)
        cuts = [0, 4, 7, 11, 14]
        for rows in map(range, cuts[:-1], cuts[1:]):
            for cols in map(range, cuts[:-1], cuts[1:]):
                met = {c: remainders[c] for c in range(5)
                       if set(rows) & set(range(offsets[c], offsets[c + 1]))
                       and set(cols) & set(range(offsets[c], offsets[c + 1]))}
                merge_children(dims, met, couplings, out, rows, cols)
        assert np.array_equal(out, whole)

    def test_lossless_parent_matches_dense_elimination(self):
        # Oracle: eliminate all redundant coordinates of the rotated dense
        # operator directly and read off the skeleton Schur complement.
        spec = KernelSpec("laplace2d")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=256, max_rank=256)
        from hssulv.factor import run_diag_product, run_partial_factor
        run = FactorRun(h)
        tasks = build_dag(h).tasks
        results = {}
        for i in range(2):
            results[("dp", 1, i)] = run_diag_product(run, results, tasks[("dp", 1, i)])
            results[("pf", 1, i)] = run_partial_factor(run, results, tasks[("pf", 1, i)])
        parent = merge_children(run.dims, [results[("pf", 1, i)] for i in range(2)],
                                {(0, 1): h.coupling[(1, 0, 1)]})

        dense = kernel_matrix(spec, ps.points, ps.points)
        qf = sla.block_diag(h.bases[(1, 0)].q, h.bases[(1, 1)].q)
        rotated = qf.T @ dense @ qf
        rd0, sk0 = h.bases[(1, 0)].redundant_dim, h.bases[(1, 0)].skeleton_dim
        rd1 = h.bases[(1, 1)].redundant_dim
        w0 = rd0 + sk0
        skel = np.r_[rd0:w0, w0 + rd1:512]
        red = np.r_[0:rd0, w0:w0 + rd1]
        brute = rotated[np.ix_(skel, skel)] - rotated[np.ix_(skel, red)] @ \
            np.linalg.solve(rotated[np.ix_(red, red)], rotated[np.ix_(red, skel)])
        assert np.linalg.norm(parent - brute) <= 1e-8 * np.linalg.norm(brute)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="coupling shape"):
            merge_children([2, 2], [np.eye(2), np.eye(2)], {(0, 1): np.zeros((3, 2))})
        with pytest.raises(ValueError, match="skeleton remainder shape"):
            merge_children([2, 2], [np.eye(2), np.eye(3)], {(0, 1): np.zeros((2, 2))})


class TestBlr2Ulv:
    def test_single_block_is_plain_cholesky(self):
        # The builders need two blocks; a one-block tree whose basis is
        # all skeleton is made by hand.
        pts = generate_grid(64).points
        block = kernel_matrix(KernelSpec("yukawa"), pts, pts)
        m = HssMatrix(Tree(((0, 64), (0, 64))), (packed(block),),
                      {(1, 0): BlockBasis(np.eye(64), 0, 64)}, {})
        f = ulv_factor_blr2(m)
        from hssulv import cholesky
        assert np.array_equal(f.root_chol, cholesky(block))

    def test_two_block_lossless_vs_dense_solve(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(512)
        m = build_blr2(spec, ps, nleaf=256, max_rank=256)
        f = ulv_factor_blr2(m)
        dense = kernel_matrix(spec, ps.points, ps.points)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(512)
        x = ulv_solve(f, b)
        ref = dense_solve(dense, b)
        assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_many_block_solve_error(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(1024)
        m = build_blr2(spec, ps, nleaf=256, max_rank=100)
        f = ulv_factor_blr2(m)
        assert solve_error(f, m, seed=0) <= 1e-12

    def test_reconstructs_compressed_operator(self):
        spec = KernelSpec("matern")
        ps = generate_grid(512)
        m = build_blr2(spec, ps, nleaf=128, max_rank=50)
        f = ulv_factor_blr2(m)
        assert reconstruct_check(f, m) <= 1e-10


class TestHssUlv:
    def test_single_level_matches_blr2_bitwise(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=256, max_rank=80)
        m = build_blr2(spec, ps, nleaf=256, max_rank=80)
        fh = ulv_factor_hss(h)
        fm = ulv_factor_blr2(m)
        assert np.array_equal(fh.root_chol, fm.root_chol)
        for a, b in zip(fh.levels[1], fm.levels[1]):
            assert np.array_equal(a.l_rr, b.l_rr)
            assert np.array_equal(a.l_sr, b.l_sr)

    def test_lossless_reconstruct(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=128, max_rank=128)
        f = ulv_factor_hss(h)
        assert reconstruct_check(f, h) <= 1e-11

    def test_truncated_solve_error(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(2048)
        h = build_hss(spec, ps, nleaf=256, max_rank=100)
        f = ulv_factor_hss(h)
        assert solve_error(f, h, seed=0) <= 1e-9

    def test_non_spd_names_level_and_node(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=128, max_rank=60)
        bad_diag = list(h.leaf_diag)
        bad_diag[2] = -np.asarray(bad_diag[2])
        broken = dataclasses.replace(h, leaf_diag=tuple(bad_diag))
        rank = h.skeleton_dim(2, 2)
        with pytest.raises(NotPositiveDefiniteError,
                           match=f"level 2 node 2 \\(skeleton rank {rank}\\)") as err:
            ulv_factor_hss(broken)
        assert (err.value.level, err.value.node, err.value.rank) == (2, 2, rank)

    def test_blr2_non_spd_names_level_and_node(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(512)
        m = build_blr2(spec, ps, nleaf=128, max_rank=60)
        bad_diag = list(m.leaf_diag)
        bad_diag[3] = -np.asarray(bad_diag[3])
        broken = dataclasses.replace(m, leaf_diag=tuple(bad_diag))
        with pytest.raises(NotPositiveDefiniteError, match="level 1 node 3"):
            ulv_factor_blr2(broken)

    def test_indefinite_root_names_root_order_and_ranks(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            ulv_factor_hss(indefinite_root_hss())
        assert "root block (order 2, level-1 skeleton ranks [1, 1])" in str(err.value)
        assert (err.value.level, err.value.node, err.value.rank) == (None, None, None)

    def test_indefinite_root_pivot_is_the_recomputed_one(self):
        # the root reports the pivot dpotrf left on the diagonal of the
        # merged block it factors in place
        h = indefinite_root_hss()
        g = build_dag(h)
        del g.tasks[("potrf", 0)]  # the order-2 root is one tile
        run = FactorRun(h)
        run_graph(g, _FACTOR_BODIES, run, 1)
        block = run.root
        with pytest.raises(NotPositiveDefiniteError) as err:
            ulv_factor_hss(h)
        k = err.value.pivot_index
        assert err.value.pivot_value == pytest.approx(_failed_pivot_value(block, k),
                                                      rel=1e-12)

    @pytest.mark.parametrize("build", [build_hss, build_blr2])
    def test_poisoned_leaf_diagonal_named(self, build):
        h = build(KernelSpec("laplace2d"), generate_grid(512), 128, 60)
        bad_diag = list(h.leaf_diag)
        bad_diag[1] = np.array(bad_diag[1])
        bad_diag[1][packed_index(h.tree.offsets[-1][2] - h.tree.offsets[-1][1], 5, 5)] = np.nan
        broken = dataclasses.replace(h, leaf_diag=tuple(bad_diag))
        with pytest.raises(ValueError, match=f"NaN or infinite entries in level "
                                             f"{h.max_level} node 1 "):
            ulv_factor_hss(broken)

    @pytest.mark.parametrize("build", [build_hss, build_blr2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_poisoned_root_coupling_named(self, build, bad):
        # the BLR2 root is tiled, and coupling (0, 15) lands in an
        # off-diagonal tile whose merge waits for no partial factor
        h = build(KernelSpec("laplace2d"), generate_grid(2048), 128, 60)
        key = (1, 0, 15) if build is build_blr2 else (1, 0, 1)
        assert (root_tile_count(h) > 1) == (build is build_blr2)
        coupling = dict(h.coupling)
        coupling[key] = np.array(coupling[key])
        coupling[key][3, 5] = bad
        broken = dataclasses.replace(h, coupling=coupling)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="NaN or infinite entries in root block"):
                ulv_factor_hss(broken, workers)

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_factor_peak_memory_within_twice_factor_bytes(self, n):
        # rotated diagonals and merged blocks are dropped once consumed
        assert factor_peak_over_factor_bytes(n) <= 2

    def test_factor_peak_memory_drops_consumed_remainders(self):
        # each skeleton remainder is dropped by the merge that reads it;
        # kept until assembly, the peak reaches 1.47x the factor bytes
        assert factor_peak_over_factor_bytes(2048) <= 1.42

    def test_factor_peak_memory_depth_first(self):
        # each partial factor runs right after its own diagonal product;
        # with every leaf product first, all rotated leaf diagonals were
        # alive at once and the peak was 1.37x (depth first: 1.23x)
        assert factor_peak_over_factor_bytes(2048) <= 1.25

    def test_blr2_factor_peak_memory_root_in_place(self):
        # the root is factored inside its merged block; with a copy of it
        # for dpotrf, the peak was 2.34x the factor bytes
        for workers in (1, 2):
            assert factor_peak_over_factor_bytes(2048, build_blr2, workers) <= 1.2


def factor_peak_over_factor_bytes(n, build=build_hss, workers=1):
    """Traced peak of ``ulv_factor_hss`` (alias ``ulv_factor_blr2``) at
    ``workers`` over the bytes of its factors, for the yukawa operator
    ``build`` makes."""
    h = build(KernelSpec("yukawa"), generate_grid(n), 256, 100)
    tracemalloc.start()
    try:
        f = ulv_factor_hss(h, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    factor_bytes = f.root_chol.nbytes + sum(
        nf.l_rr.nbytes + nf.l_sr.nbytes for lvl in f.levels.values() for nf in lvl)
    return peak / factor_bytes


class TestUlvSolve:
    def test_zero_rhs(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(256)
        h = build_hss(spec, ps, nleaf=64, max_rank=30)
        f = ulv_factor_hss(h)
        assert np.array_equal(ulv_solve(f, np.zeros(256)), np.zeros(256))

    def test_lossless_vs_dense_solve(self):
        spec = KernelSpec("matern")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=128, max_rank=128)
        f = ulv_factor_hss(h)
        dense = kernel_matrix(spec, ps.points, ps.points)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(512)
        ref = dense_solve(dense, b)
        assert np.linalg.norm(ulv_solve(f, b) - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_matern_multilevel_solve_error(self):
        spec = KernelSpec("matern")
        ps = generate_grid(1024)
        h = build_hss(spec, ps, nleaf=256, max_rank=100)
        f = ulv_factor_hss(h)
        assert solve_error(f, h, seed=0) <= 1e-9

    def test_solve_error_deterministic_bitwise(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=128, max_rank=50)
        f = ulv_factor_hss(h)
        assert solve_error(f, h, 11) == solve_error(f, h, 11)

    def test_rhs_shape_checked(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(256)
        f = ulv_factor_hss(build_hss(spec, ps, nleaf=64, max_rank=30))
        for shape in [(100,), (100, 3), (256, 2, 2), (), (3, 256)]:
            with pytest.raises(ValueError, match="right-hand side must have shape"):
                ulv_solve(f, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_non_finite_rhs_named(self, bad, columns):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(256)
        f = ulv_factor_hss(build_hss(spec, ps, nleaf=64, max_rank=30))
        b = np.ones(256 if columns is None else (256, columns))
        b[17] = bad
        with pytest.raises(ValueError, match="right-hand side is non-finite"):
            ulv_solve(f, b)

    def test_block_keeps_its_shape(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(256)
        f = ulv_factor_hss(build_hss(spec, ps, nleaf=64, max_rank=30))
        assert ulv_solve(f, np.ones(256)).shape == (256,)
        assert ulv_solve(f, np.ones((256, 1))).shape == (256, 1)
        assert ulv_solve(f, np.zeros((256, 0))).shape == (256, 0)


def reference_solve(f, b):
    """The two sweeps as first written, with ``scipy.linalg.solve_triangular``
    (finiteness scans and all), for a right-hand side of shape ``(n,)``."""
    def forward(nf, seg):
        rotated = nf.basis.q.T @ seg
        rd = nf.redundant_dim
        if rd == 0:
            return rotated[:0], rotated
        y_r = sla.solve_triangular(nf.l_rr, rotated[:rd], lower=True)
        return y_r, rotated[rd:] - nf.l_sr @ y_r

    def backward(nf, y_r, x_s):
        rd = nf.redundant_dim
        if rd == 0:
            return nf.basis.q @ x_s
        x_r = sla.solve_triangular(nf.l_rr, y_r - nf.l_sr.T @ x_s, lower=True, trans="T")
        return nf.basis.q @ np.concatenate([x_r, x_s])

    parked, active = {}, b
    for level in range(f.max_level, 0, -1):
        reds, skels, off = [], [], 0
        for nf in f.levels[level]:
            y_r, y_s = forward(nf, active[off:off + nf.width])
            reds.append(y_r)
            skels.append(y_s)
            off += nf.width
        parked[level] = reds
        active = np.concatenate(skels)
    w = sla.solve_triangular(f.root_chol, active, lower=True)
    w = sla.solve_triangular(f.root_chol, w, lower=True, trans="T")
    for level in range(1, f.max_level + 1):
        segs, off = [], 0
        for nf, y_r in zip(f.levels[level], parked[level]):
            segs.append(backward(nf, y_r, w[off:off + nf.skeleton_dim]))
            off += nf.skeleton_dim
        w = np.concatenate(segs)
    return w


@pytest.mark.parametrize("build", [build_hss, build_blr2])
@pytest.mark.parametrize("kind", ["laplace2d", "yukawa", "matern"])
def test_single_solve_bitwise_equal_to_reference(kind, build):
    # the direct LAPACK calls skip only scans and validation, never arithmetic
    f = ulv_factor_hss(build(KernelSpec(kind), generate_grid(1024), 128, 50))
    rng = np.random.default_rng(9)
    for _ in range(3):
        b = rng.standard_normal(1024)
        assert np.array_equal(ulv_solve(f, b), reference_solve(f, b))


@pytest.mark.parametrize("build", [build_hss, build_blr2])
@pytest.mark.parametrize("n", [1250, 2500])
def test_uneven_tree_solve_matches_dense_oracle(n, build):
    # n is not nleaf times a power of two: the HSS leaves hold 156 or 157
    # points and the last BLR2 block is short; criterion 1's tolerance
    ps = generate_grid(n)
    b = np.random.default_rng(0).standard_normal(n)
    for kind in ("laplace2d", "yukawa", "matern"):
        spec = KernelSpec(kind)
        h = build(spec, ps, 256, 256)
        assert h.n == n and len(set(np.diff(h.tree.offsets[-1]))) == 2
        ref = dense_solve(kernel_matrix(spec, ps.points, ps.points), b)
        x = ulv_solve(ulv_factor_hss(h), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref), kind


class TestReconstructCheck:
    def test_truncation_does_not_degrade_reconstruction(self):
        # factorization is exact on the compressed operator at any rank
        spec = KernelSpec("laplace2d")
        ps = generate_grid(1024)
        h = build_hss(spec, ps, nleaf=256, max_rank=50)
        f = ulv_factor_hss(h)
        assert reconstruct_check(f, h) <= 1e-10

    def test_single_level_equals_blr2_reconstruction(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=256, max_rank=70)
        m = build_blr2(spec, ps, nleaf=256, max_rank=70)
        rh = reconstruct_check(ulv_factor_hss(h), h)
        rm = reconstruct_check(ulv_factor_blr2(m), m)
        assert rh <= 1e-10 and rm <= 1e-10

    def test_guard_rejects_large_problems(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(4096)
        h = build_hss(spec, ps, nleaf=1024, max_rank=20)
        f = ulv_factor_hss(h)
        with pytest.raises(ValueError, match="guard"):
            reconstruct_check(f, h)

    def test_root_dimension_is_sum_of_level1_ranks(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(1024)
        h = build_hss(spec, ps, nleaf=256, max_rank=90)
        f = ulv_factor_hss(h)
        assert f.root_dim == h.skeleton_dim(1, 0) + h.skeleton_dim(1, 1)

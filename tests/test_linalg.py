import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import factor_root, random_spd, root_tree
from hssulv import (NotPositiveDefiniteError, cholesky, KernelSpec, TaskKind,
                    build_dag, build_shared_basis, generate_grid, kernel_matrix,
                    partial_cholesky, ulv_factor_hss)
from hssulv.factor import ROOT_TILE, FactorRun
from hssulv._threads import single_blas_thread
from hssulv import linalg
from hssulv.linalg import (_failed_pivot_value, _svd, dominant_basis_full,
                           solve_lower, tile_gemm, tile_syrk, tile_trsm)
from hssulv.taskdag import _FACTOR_BODIES, run_graph


def longest_gil_pause(fn, *args):
    """Run ``fn(*args)`` at one BLAS thread beside a thread that counts in
    a Python loop; returns how far it counted and its longest pause inside
    the call.

    The counter notes every pause of more than 1 ms.  A LAPACK call that
    holds the GIL stops it for the whole call; released, the longest pause
    is a scheduler slice (at most 8 ms measured, also beside spinning
    OpenBLAS threads).  The count alone cannot tell: between bytecodes the
    interpreter's switch interval hands the GIL over anyway.
    """
    state = {"count": 0, "stop": False, "pauses": []}

    def count():
        last = time.perf_counter()
        while not state["stop"]:
            state["count"] += 1
            now = time.perf_counter()
            if now - last > 1e-3:
                state["pauses"].append((last, now))
            last = now

    counter = threading.Thread(target=count, daemon=True)
    counter.start()
    try:
        while state["count"] == 0:
            time.sleep(1e-3)
        before = state["count"]
        t0 = time.perf_counter()
        single_blas_thread(fn)(*args)
        t1 = time.perf_counter()
        advanced = state["count"] - before
    finally:
        state["stop"] = True
        counter.join(timeout=10)
    assert not counter.is_alive()
    longest = max([min(end, t1) - max(start, t0) for start, end in state["pauses"]],
                  default=0)
    return advanced, longest


def indefinite_at(rng, n, k):
    """A symmetric matrix of order ``n`` whose Cholesky fails at pivot ``k``:
    SPD but for ``a[k, k]``, lowered to make that pivot minus its value."""
    a = random_spd(rng, n)
    pivot = sla.cholesky(a[:k + 1, :k + 1], lower=True)[k, k] ** 2
    a[k, k] -= 2 * pivot
    return a


def capped_basis(a, max_rank):
    """Orthonormal columns spanning the dominant column space of ``a``,
    capped at ``max_rank``: the skeleton of its shared basis."""
    basis = build_shared_basis(a.T, max_rank)
    return basis.skeleton, basis.skeleton_dim


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_forced_2x2(self):
        low = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(low, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 16)
        low = cholesky(a)
        assert np.linalg.norm(low @ low.T - a) <= 1e-13 * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [16, 128, 512])
    def test_reconstruction_up_to_512(self, n):
        rng = np.random.default_rng(n)
        a = random_spd(rng, n)
        low = cholesky(a)
        assert np.linalg.norm(low @ low.T - a) <= 1e-12 * np.linalg.norm(a)
        assert np.all(np.triu(low, 1) == 0)
        assert np.all(np.diag(low) > 0)

    def test_non_spd_reports_pivot(self):
        a = np.diag([1.0, 1.0, -2.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(a)
        assert err.value.pivot_index == 2
        assert err.value.pivot_value == pytest.approx(-2.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([[1.0, 2.0], [0.5, 3.0]]))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 64)
        assert np.array_equal(cholesky(a), cholesky(a.copy()))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_unchanged_and_factor_f_ordered(self, order):
        a = np.asarray(random_spd(np.random.default_rng(4), 200), order=order)
        before = a.copy()
        low = cholesky(a)
        assert np.array_equal(a, before)
        assert low.flags.f_contiguous and not np.shares_memory(low, a)
        assert np.array_equal(low, sla.cholesky(before, lower=True))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # dpotrf tests a pivot with "<= 0", which a NaN passes
        a = np.eye(4)
        a[2, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite entries in leaf 7"):
            cholesky(a, context="leaf 7")

    def test_failed_pivot_is_recomputed_from_the_input(self):
        a = indefinite_at(np.random.default_rng(5), 400, 300)
        want = _failed_pivot_value(a, 300)
        assert want < 0
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(a, "root")
        assert err.value.pivot_index == 300 and err.value.context == "root"
        assert err.value.pivot_value == want

    def test_releases_the_gil(self):
        # about 0.1 s of dpotrf at one BLAS thread; through f2py the
        # counter stopped for all of it
        n = 2048
        a = np.random.default_rng(13).standard_normal((n, n))
        a = a + a.T + n * np.eye(n)
        advanced, longest = longest_gil_pause(cholesky, a)
        assert advanced >= 10**4
        assert longest < 0.03


class TestRootTiles:
    """The root's tiled Cholesky: its BLAS kernels, run in place on views
    into one F-ordered block, and its named failures."""

    @staticmethod
    def block_and_views(rng, n=96, t=32):
        a = np.asfortranarray(rng.standard_normal((n, n)))
        return a, (lambda i, j: a[i * t:(i + 1) * t, j * t:(j + 1) * t])

    def test_trsm_solves_tile_in_place(self):
        a, tile = self.block_and_views(np.random.default_rng(1))
        low = cholesky(random_spd(np.random.default_rng(2), 32))
        tile(0, 0)[...] = low + np.triu(np.ones((32, 32)), 1)  # upper ignored
        before = a.copy()
        tile_trsm(tile(0, 0), tile(2, 0))
        want = sla.solve_triangular(low, before[64:, :32].T, lower=True).T
        assert np.linalg.norm(a[64:, :32] - want) <= 1e-13 * np.linalg.norm(want)
        a[64:, :32] = before[64:, :32]
        assert np.array_equal(a, before)

    def test_syrk_updates_lower_triangle_only(self):
        a, tile = self.block_and_views(np.random.default_rng(3))
        before = a.copy()
        tile_syrk(tile(2, 1), tile(2, 2))
        c = before[64:, 64:] - before[64:, 32:64] @ before[64:, 32:64].T
        low = np.tril_indices(32)
        assert np.allclose(a[64:, 64:][low], c[low], rtol=0, atol=1e-13 * np.abs(c).max())
        a[64:, 64:][low] = before[64:, 64:][low]
        assert np.array_equal(a, before)

    def test_gemm_updates_tile_in_place(self):
        a, tile = self.block_and_views(np.random.default_rng(4))
        before = a.copy()
        tile_gemm(tile(2, 0), tile(1, 0), tile(2, 1))
        c = before[64:, 32:64] - before[64:, :32] @ before[32:64, :32].T
        assert np.allclose(a[64:, 32:64], c, rtol=0, atol=1e-13 * np.abs(c).max())
        a[64:, 32:64] = before[64:, 32:64]
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("n", [1, 99, 100, 257, 400, 417])
    def test_trsm_split_matches_solve_triangular(self, n):
        # wider than TRSM_BLOCK, the triangle is split in halves; the
        # operands are views into one block, whose other entries and the
        # triangle's upper part must be left alone
        rng = np.random.default_rng(n)
        m = 150
        a = np.asfortranarray(rng.standard_normal((n + m + 10, n + 7)))
        low = cholesky(random_spd(rng, n))
        a[:n, :n] = low + np.triu(np.ones((n, n)), 1)
        rows, cols = slice(n + 5, n + 5 + m), slice(3, 3 + n)
        before = a.copy()
        tile_trsm(a[:n, :n], a[rows, cols])
        want = sla.solve_triangular(low, before[rows, cols].T, lower=True).T
        assert np.linalg.norm(a[rows, cols] - want) <= 1e-13 * np.linalg.norm(want)
        a[rows, cols] = before[rows, cols]
        assert np.array_equal(a, before)

    def test_kernels_refuse_row_major_operands(self):
        c = np.zeros((8, 8))
        with pytest.raises(ValueError, match="column-major float64"):
            tile_gemm(np.ones((8, 4)), np.ones((8, 4)), c)
        with pytest.raises(ValueError, match="column-major float64"):
            tile_syrk(np.ones((8, 4), dtype=np.float32, order="F"), np.asfortranarray(c))

    def test_kernels_refuse_mismatched_shapes(self):
        a, b = np.zeros((8, 4), order="F"), np.zeros((6, 3), order="F")
        with pytest.raises(ValueError, match="tile of shape"):
            tile_trsm(np.eye(4), np.zeros((8, 5), order="F"))
        with pytest.raises(ValueError, match="tile of shape"):
            tile_syrk(a, a.copy(order="F"))
        with pytest.raises(ValueError, match="tile of shape"):
            tile_gemm(a, b, np.zeros((8, 6), order="F"))

    @pytest.mark.parametrize("kernel", ["trsm", "syrk", "gemm"])
    def test_kernels_release_the_gil(self, kernel):
        # 1-2 Gflop per call at one BLAS thread
        n = 1024
        rng = np.random.default_rng(14)
        a, b, c = (np.asfortranarray(rng.standard_normal((n, n))) for _ in range(3))
        if kernel == "trsm":
            args = (np.asfortranarray(cholesky(random_spd(rng, n))), c)
        elif kernel == "syrk":
            args = (a, c)
        else:
            args = (a, b, c)
        fn = {"trsm": tile_trsm, "syrk": tile_syrk, "gemm": tile_gemm}[kernel]
        advanced, longest = longest_gil_pause(fn, *args)
        assert advanced >= 10**4
        assert longest < 0.03

    def test_late_tile_pivot_names_global_index_and_root(self):
        # the root fails in its third tile; the error reports the index in
        # the whole block and the value dpotrf left in the tile, which went
        # through the tile updates
        n, k = 2 * ROOT_TILE + 17, 2 * ROOT_TILE + 5
        a = indefinite_at(np.random.default_rng(5), n, k)
        want = _failed_pivot_value(a, k)
        assert want < 0
        for workers in (1, 2):
            with pytest.raises(NotPositiveDefiniteError) as err:
                ulv_factor_hss(root_tree(a), workers=workers)
            assert err.value.pivot_index == k
            assert err.value.context == f"root block (order {n}, level-1 skeleton ranks [{n}])"
            assert err.value.pivot_value == pytest.approx(want, rel=1e-9)
            assert (err.value.level, err.value.node, err.value.rank) == (None, None, None)

    def test_one_tile_root_is_one_dpotrf(self):
        # a root of at most ROOT_TILE is factored as an untiled Cholesky,
        # which the factorization runs at one BLAS thread
        a = random_spd(np.random.default_rng(6), ROOT_TILE)
        assert np.array_equal(factor_root(a), single_blas_thread(cholesky)(a))

    def test_stress_more_workers_than_cores(self):
        # eight workers switching every microsecond share one block
        a = random_spd(np.random.default_rng(8), 3 * ROOT_TILE + 17)
        ref = factor_root(a)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(3):
                assert np.array_equal(factor_root(a, 8, seed), ref)
        finally:
            sys.setswitchinterval(interval)

    def test_root_asymmetry_named_before_any_tile_runs(self):
        # the root's merges place couplings as S and S.T, so asymmetry can
        # only come in through a remainder, whose partial factor refuses it;
        # a packed leaf diagonal cannot hold any, so it is put into the
        # rotated diagonal, which the all-skeleton basis leaves as it is
        h = root_tree(random_spd(np.random.default_rng(7), ROOT_TILE + 8))
        ran = []

        def skewed_product(run, results, task):
            rotated = _FACTOR_BODIES[TaskKind.DIAG_PRODUCT](run, results, task)
            rotated[ROOT_TILE + 3, 2] += 1
            return rotated

        def root_tile(run, results, task):
            ran.append(task.id)
            return _FACTOR_BODIES[TaskKind.ROOT_FACTOR](run, results, task)

        bodies = {**_FACTOR_BODIES, TaskKind.DIAG_PRODUCT: skewed_product,
                  TaskKind.ROOT_FACTOR: root_tile}
        with pytest.raises(ValueError, match=r"a_hat is not symmetric .* in level 1 node 0 "):
            run_graph(build_dag(h), bodies, FactorRun(h), workers=2)
        assert ran == []


class TestSolveLower:
    @pytest.mark.parametrize("order", ["F", "C", "strided"])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("shape", [(40,), (40, 3)])
    def test_bitwise_equal_to_solve_triangular(self, order, trans, shape):
        rng = np.random.default_rng(3)
        low = cholesky(random_spd(rng, 80))[:40, :40] if order == "strided" \
            else np.asarray(cholesky(random_spd(rng, 40)), order=order)
        b = rng.standard_normal(shape)
        want = sla.solve_triangular(low, b, lower=True, trans=int(trans))
        got = solve_lower(low, b, trans=trans)
        assert got.shape == shape
        assert np.array_equal(got, want)

    def test_empty_right_hand_side(self):
        assert solve_lower(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert solve_lower(np.eye(3), np.zeros((3, 0))).shape == (3, 0)

    def test_singular_factor_raises(self):
        low = np.tril(np.ones((4, 4)))
        low[2, 2] = 0
        with pytest.raises(np.linalg.LinAlgError, match="info=3"):
            solve_lower(low, np.ones(4))


class TestDominantBasis:
    def test_identity_full_rank(self):
        q, rank, _ = dominant_basis_full(np.eye(4))
        assert rank == 4 and q.shape == (4, 4)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-14)

    def test_outer_product_rank_one(self):
        rng = np.random.default_rng(5)
        a = np.outer(rng.standard_normal(9), rng.standard_normal(7))
        q, rank = capped_basis(a, 3)
        assert rank == 1
        assert np.linalg.norm(a - q @ (q.T @ a)) <= 1e-13 * np.linalg.norm(a)

    def test_kernel_block_close_to_svd_optimum(self):
        # Oracle: truncated SVD of the same block.
        spec = KernelSpec("laplace2d")
        pts = generate_grid(64).points
        a = kernel_matrix(spec, pts[:32], pts[32:])
        q, rank = capped_basis(a, 10)
        assert rank == 10
        err = np.linalg.norm(a - q @ (q.T @ a))
        svd_err = np.linalg.norm(np.linalg.svd(a, compute_uv=False)[10:])
        assert err <= (1 + 1e-9) * svd_err

    def test_projection_error_bounded_by_input_norm(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            a = rng.standard_normal((12, 9))
            q, rank = capped_basis(a, rng.integers(1, 10))
            assert np.allclose(q.T @ q, np.eye(rank), atol=1e-13)
            assert np.linalg.norm(a - q @ (q.T @ a)) <= np.linalg.norm(a) + 1e-12

    @pytest.mark.parametrize("shape", [(6, 20), (20, 6)], ids=["wide", "tall"])
    def test_square_orthonormal_with_rank(self, shape):
        # rank 4 by construction, on either side of the square case
        rng = np.random.default_rng(6)
        m, n = shape
        a = rng.standard_normal((m, 4)) @ rng.standard_normal((4, n))
        q, rank, _ = dominant_basis_full(a)
        assert q.shape == (m, m) and rank == 4
        assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-13
        lead = q[:, :rank]
        assert np.linalg.norm(a - lead @ (lead.T @ a)) <= 1e-13 * np.linalg.norm(a)

    def test_zero_matrix_rank_zero(self):
        q, rank, _ = dominant_basis_full(np.zeros((5, 4)))
        assert rank == 0 and q.shape == (5, 5)
        q, rank = capped_basis(np.zeros((5, 4)), 3)
        assert rank == 0 and q.shape == (5, 0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((20, 16))
        q1 = dominant_basis_full(a)[0]
        q2 = dominant_basis_full(a.copy())[0]
        assert np.array_equal(q1, q2)

    @pytest.mark.parametrize("shape", [(256, 256), (200, 200), (100, 37)])
    def test_svd_bitwise_equal_to_scipy(self, shape):
        # the triangles dominant_basis_full hands to its SVD
        a = np.tril(np.random.default_rng(9).standard_normal(shape))
        want_u, want_s, _ = sla.svd(a, full_matrices=True)
        u, s = _svd(np.array(a, order="F"))
        assert np.array_equal(u, want_u) and np.array_equal(s, want_s)

    def test_singular_values_returned(self):
        a = np.random.default_rng(10).standard_normal((30, 200))
        _, _, s = dominant_basis_full(a)
        want = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(s, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad, wide):
        a = np.ones((6, 40) if wide else (6, 4))
        a[2, 3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            dominant_basis_full(a)

    @pytest.mark.parametrize("shape", [(512, 512), (256, 4096)],
                             ids=["square-svd", "wide-qr-svd"])
    def test_releases_the_gil(self, shape):
        # 0.09-0.16 s for this SVD through scipy.linalg.svd held the GIL;
        # the wide case adds dgeqrt
        a = np.random.default_rng(11).standard_normal(shape)
        advanced, longest = longest_gil_pause(dominant_basis_full, a)
        assert advanced >= 10**4
        assert longest < 0.03

    def test_one_working_copy_of_a_wide_row(self):
        # a leaf row at N = 8192: the QR works in one copy of the row
        row = np.random.default_rng(12).standard_normal((256, 7936))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            dominant_basis_full(row)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * row.nbytes


class TestPartialCholesky:
    def test_degenerate_empty_split(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 5)
        pf = partial_cholesky(a, 0)
        assert pf.l_rr.shape == (0, 0) and pf.l_sr.shape == (5, 0)
        assert np.array_equal(pf.ss_remainder, a)

    def test_full_split_is_plain_cholesky(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 5)
        pf = partial_cholesky(a, 5)
        assert np.array_equal(pf.l_rr, cholesky(a))
        assert pf.ss_remainder.shape == (0, 0)

    def test_schur_complement_oracle(self):
        # Oracle: brute-force A^SS - A^SR (A^RR)^-1 A^RS.
        rng = np.random.default_rng(3)
        a = random_spd(rng, 6)
        pf = partial_cholesky(a, 4)
        brute = a[4:, 4:] - a[4:, :4] @ np.linalg.solve(a[:4, :4], a[:4, 4:])
        assert np.linalg.norm(pf.ss_remainder - brute) <= 1e-12 * np.linalg.norm(brute)

    def test_block_embedding_reconstructs(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 24)
        rd = 10
        pf = partial_cholesky(a, rd)
        low = np.zeros((24, 24))
        low[:rd, :rd] = pf.l_rr
        low[rd:, :rd] = pf.l_sr
        low[rd:, rd:] = cholesky(pf.ss_remainder)
        assert np.linalg.norm(low @ low.T - a) <= 1e-11 * np.linalg.norm(a)

    def test_remainder_symmetric(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 32)
        pf = partial_cholesky(a, 12)
        ss = pf.ss_remainder
        assert np.abs(ss - ss.T).max() <= 1e-13 * np.abs(ss).max()

    def test_non_spd_leading_block_rejected(self):
        a = np.diag([-1.0, 2.0, 3.0])
        with pytest.raises(NotPositiveDefiniteError):
            partial_cholesky(a, 2)

    @pytest.mark.parametrize("where", [(1, 1), (5, 4), (4, 5)],
                             ids=["redundant", "skeleton", "coupling"])
    def test_non_finite_rejected(self, where):
        a = random_spd(np.random.default_rng(7), 6)
        a[where] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite entries in leaf 7"):
            partial_cholesky(a, 3, context="leaf 7")

    def test_scans_a_hat_once(self, monkeypatch):
        # the leading block is factored without a second symmetry scan
        calls = []
        scan = linalg._require_symmetric
        monkeypatch.setattr(linalg, "_require_symmetric",
                            lambda *args: calls.append(args) or scan(*args))
        partial_cholesky(random_spd(np.random.default_rng(9), 12), 7)
        assert len(calls) == 1

    @pytest.mark.parametrize("rd", [2, 7])
    def test_input_unchanged(self, rd):
        # with one skeleton row, A^SR is a contiguous view of a_hat
        a = random_spd(np.random.default_rng(8), 8)
        before = a.copy()
        pf = partial_cholesky(a, rd)
        assert np.array_equal(a, before)
        want = sla.solve_triangular(pf.l_rr, a[rd:, :rd].T, lower=True).T
        assert np.array_equal(pf.l_sr, want)

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import unpacked
from hssulv import (KERNEL_KINDS, InsufficientMemoryError, KernelSpec,
                    build_blr2, build_hss, build_shared_basis, construct,
                    construct_error, generate_grid, kernel_matrix, matvec)


def operator_digest(h) -> str:
    """SHA-256 over every diagonal, basis and coupling, in key order."""
    digest = hashlib.sha256()
    arrays = [*h.leaf_diag, *(h.bases[k].q for k in sorted(h.bases)),
              *(h.coupling[k] for k in sorted(h.coupling))]
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    digest.update(repr([(k, h.bases[k].redundant_dim) for k in sorted(h.bases)]).encode())
    return digest.hexdigest()


def stacked_admissible_row(dense, nleaf, i):
    """Admissible blocks of block row i, stacked tall (column layout)."""
    lo, hi = i * nleaf, (i + 1) * nleaf
    return np.vstack([dense[:lo, lo:hi], dense[hi:, lo:hi]])


class TestSharedBasis:
    def test_exact_rank_detected(self):
        rng = np.random.default_rng(0)
        left = rng.standard_normal((100, 7))
        right = rng.standard_normal((7, 24))
        stacked = left @ right  # rank 7 by construction
        basis = build_shared_basis(stacked, max_rank=20)
        assert basis.skeleton_dim == 7
        proj = stacked @ basis.skeleton @ basis.skeleton.T
        assert np.linalg.norm(stacked - proj) <= 1e-12 * np.linalg.norm(stacked)

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(1)
        stacked = rng.standard_normal((40, 12))
        basis = build_shared_basis(stacked, max_rank=12)
        assert basis.q.shape == (12, 12)
        assert basis.redundant_dim == 12 - basis.skeleton_dim
        assert np.linalg.norm(basis.q.T @ basis.q - np.eye(12)) <= 1e-12

    def test_laplace_row_projection_error(self):
        # Oracle: singular value tail of the same admissible row.
        spec = KernelSpec("laplace2d")
        ps = generate_grid(512)
        dense = kernel_matrix(spec, ps.points, ps.points)
        stacked = stacked_admissible_row(dense, 256, 0)
        basis = build_shared_basis(stacked, max_rank=100)
        err = np.linalg.norm(stacked - stacked @ basis.skeleton @ basis.skeleton.T)
        assert err <= 1e-5 * np.linalg.norm(stacked)
        tail = np.linalg.norm(np.linalg.svd(stacked, compute_uv=False)[100:])
        assert err <= 10 * tail + 1e-12 * np.linalg.norm(stacked)

    @pytest.mark.parametrize("kind", ["yukawa", "matern"])
    def test_leaf_row_at_svd_optimum(self, kind):
        # Oracle: singular value tail of the first leaf's admissible row at
        # N = 4096; the basis must reach it up to rounding.
        pts = generate_grid(4096).points
        row = kernel_matrix(KernelSpec(kind), pts[:256], pts)
        stacked = row[:, 256:].T
        basis = build_shared_basis(stacked, max_rank=100)
        assert basis.skeleton_dim == 100
        err = np.linalg.norm(stacked - stacked @ basis.skeleton @ basis.skeleton.T)
        tail = np.linalg.norm(np.linalg.svd(stacked, compute_uv=False)[100:])
        assert err <= tail + 1e-14 * np.linalg.norm(stacked)

    def test_tail_is_the_discarded_singular_values(self):
        rng = np.random.default_rng(2)
        stacked = rng.standard_normal((300, 40)) * np.logspace(0, -6, 40)
        s = np.linalg.svd(stacked, compute_uv=False)
        basis = build_shared_basis(stacked, max_rank=10)
        assert basis.tail == pytest.approx(np.linalg.norm(s[10:]) / np.linalg.norm(s),
                                           rel=1e-10)
        # nothing is cut from an exact rank-7 row
        low_rank = rng.standard_normal((100, 7)) @ rng.standard_normal((7, 24))
        assert build_shared_basis(low_rank, max_rank=20).tail < 1e-14

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            build_shared_basis(np.zeros((0, 8)), 4)


    def test_input_unchanged(self):
        row = np.random.default_rng(1).standard_normal((300, 40))
        before = row.copy()
        build_shared_basis(row, 10)
        build_shared_basis(row.T, 10)
        assert np.array_equal(row, before)


def leaf_kinds(ps, nleaf):
    """First corner, edge and interior leaf, by the number of axes along
    which the leaf's box reaches a side of the point set's box."""
    lo, hi = ps.points.min(axis=0), ps.points.max(axis=0)
    found = {}
    for i in range(ps.n // nleaf):
        x = ps.points[i * nleaf:(i + 1) * nleaf]
        sides = int(np.count_nonzero((x.min(axis=0) == lo) | (x.max(axis=0) == hi)))
        found.setdefault(("interior", "edge", "corner")[sides], i)
    return found


def kernel_entries_witness(build, n, bound, monkeypatch):
    """A leaf evaluates its near band, with its diagonal block in it, and
    its proxies: no point outside its band is ever evaluated.  Leaf i's
    couplings read only skeleton points: one call over k' points of each
    earlier leaf against k' of its own.  All of it is at most ``bound *
    n**2`` kernel entries."""
    ps = generate_grid(n)
    index = {tuple(p): k for k, p in enumerate(ps.points)}
    calls = []

    def counted(spec, x, y):
        calls.append((x, y))
        return kernel_matrix(spec, x, y)

    monkeypatch.setattr(construct, "kernel_matrix", counted)
    build(KernelSpec("yukawa"), ps, 256, 100, workers=2)
    nb, k = n // 256, 100 + construct.ID_OVERSAMPLE
    assert len(calls) == 2 * nb + nb - 1
    assert sum(len(x) * len(y) for x, y in calls) <= bound * n**2
    couplings = 0
    for x, y in calls:
        r0 = index[tuple(x[0])]
        if np.array_equal(x, ps.points[r0:r0 + len(x)]):  # a leaf's own call
            lo, hi = x.min(axis=0), x.max(axis=0)
            radius = construct.NEAR_RADIUS * np.linalg.norm(hi - lo) / 2
            band = [m for m in (index.get(tuple(p)) for p in y) if m is not None]
            assert np.all(np.linalg.norm(ps.points[band] - (lo + hi) / 2, axis=1)
                          < radius)
            continue
        couplings += 1
        leaf = {index[tuple(p)] // 256 for p in y}
        assert len(y) == k and len(leaf) == 1
        rows = [index[tuple(p)] // 256 for p in x]
        assert rows == [j for j in range(leaf.pop()) for _ in range(k)]
    assert couplings == nb - 1


class TestLeafSample:
    """A leaf basis compresses its near band and weighted proxies, not its
    whole admissible row."""

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_leaf_basis_near_svd_optimum(self, kind):
        # Oracle: the singular value tail of each leaf's full admissible
        # row at rank 100; the sampled basis stays within 1.1x of it
        spec, ps = KernelSpec(kind), generate_grid(4096)
        m = build_blr2(spec, ps, 256, 100, workers=2)
        leaves = leaf_kinds(ps, 256)
        assert set(leaves) == {"corner", "edge", "interior"}
        for i in leaves.values():
            rows = range(i * 256, (i + 1) * 256)
            row = kernel_matrix(spec, ps.points[rows], np.delete(ps.points, rows, axis=0))
            v = m.bases[(1, i)].skeleton
            err = np.linalg.norm(row - v @ (v.T @ row))
            tail = np.linalg.norm(np.linalg.svd(row, compute_uv=False)[100:])
            assert err <= 1.1 * tail, (i, err / tail)

    def test_proxies_in_box_and_apart_from_leaf(self):
        ps = generate_grid(4096)
        box = np.stack([ps.points.min(axis=0), ps.points.max(axis=0)])
        ctx = construct._BuildContext(KernelSpec("laplace2d"), ps.points, box,
                                      construct._partition(4096, 256, True), 100)
        for i in leaf_kinds(ps, 256).values():
            r0, r1 = i * 256, (i + 1) * 256
            x = ps.points[r0:r1]
            near, proxies, weight = construct._leaf_sample(ctx, i)
            assert len(proxies) and weight > 0
            assert np.all((proxies >= box[0]) & (proxies <= box[1]))
            half_diagonal = np.linalg.norm(x.max(axis=0) - x.min(axis=0)) / 2
            # so yukawa's 1 / (theta + d) stays far from its pole
            assert cdist(proxies, x).min() >= half_diagonal
            assert not np.any((near >= r0) & (near < r1))

    @pytest.mark.parametrize("build", [build_hss, build_blr2])
    def test_kernel_entries_witness(self, build, monkeypatch):
        # with every leaf's row up to the diagonal, 0.649 N**2; now 0.438
        kernel_entries_witness(build, 4096, 0.45, monkeypatch)

    @pytest.mark.parametrize("build", [build_hss, build_blr2])
    def test_kernel_entries_witness_large(self, build, monkeypatch):
        # with every leaf's row up to the diagonal, 0.547 N**2; now 0.253
        kernel_entries_witness(build, 16384, 0.30, monkeypatch)


class TestBlr2:
    def test_lossless_matches_dense(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(512)
        m = build_blr2(spec, ps, nleaf=128, max_rank=128)
        dense = kernel_matrix(spec, ps.points, ps.points)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(512)
        ref = dense @ x
        assert np.linalg.norm(matvec(m, x) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_single_block_rejected(self):
        with pytest.raises(ValueError, match="single block"):
            build_blr2(KernelSpec("laplace2d"), generate_grid(64), nleaf=64, max_rank=64)

    def test_compressed_error_small(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(1024)
        m = build_blr2(spec, ps, nleaf=256, max_rank=100)
        assert construct_error(m, spec, ps, seed=0) <= 1e-6

    def test_diag_blocks_exact_bitwise(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(256)
        m = build_blr2(spec, ps, nleaf=64, max_rank=32)
        dense = kernel_matrix(spec, ps.points, ps.points)
        for i, block in enumerate(m.leaf_diag):
            lo, hi = i * 64, (i + 1) * 64
            assert block.shape == (64 * 65 // 2,)
            assert np.array_equal(unpacked(block, 64), dense[lo:hi, lo:hi])


class TestHss:
    def test_lossless_matches_dense(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=128, max_rank=128)
        dense = kernel_matrix(spec, ps.points, ps.points)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(512)
        ref = dense @ x
        assert np.linalg.norm(matvec(h, x) - ref) <= 1e-11 * np.linalg.norm(ref)
        assert construct_error(h, spec, ps, seed=0) <= 1e-11

    def test_single_level_agrees_with_blr2_bitwise(self):
        spec = KernelSpec("matern")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=256, max_rank=60)
        m = build_blr2(spec, ps, nleaf=256, max_rank=60)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(512)
        assert np.array_equal(matvec(h, x), matvec(m, x))

    def test_nested_identity_reproduces_admissible_blocks(self):
        # raw-coordinate bases recovered by telescoping the transfers
        spec = KernelSpec("yukawa")
        ps = generate_grid(256)
        h = build_hss(spec, ps, nleaf=64, max_rank=64)
        dense = kernel_matrix(spec, ps.points, ps.points)
        raw = {}
        L = h.max_level
        for i in range(1 << L):
            raw[(L, i)] = h.bases[(L, i)].skeleton
        for level in range(L - 1, 0, -1):
            for i in range(1 << level):
                top, bot = raw[(level + 1, 2 * i)], raw[(level + 1, 2 * i + 1)]
                stacked = np.zeros((top.shape[0] + bot.shape[0],
                                    top.shape[1] + bot.shape[1]))
                stacked[:top.shape[0], :top.shape[1]] = top
                stacked[top.shape[0]:, top.shape[1]:] = bot
                raw[(level, i)] = stacked @ h.bases[(level, i)].skeleton
        ps_n = ps.n
        scale = np.linalg.norm(dense)
        for level in range(1, L + 1):
            width = ps_n >> level
            for i in range(0, 1 << level, 2):
                j = i + 1
                block = dense[i * width:(i + 1) * width, j * width:(j + 1) * width]
                approx = raw[(level, i)] @ h.coupling[(level, i, j)] @ raw[(level, j)].T
                # error measured at operator scale: tiny far-field blocks may
                # carry the rank-detection noise of the whole admissible row
                assert np.linalg.norm(block - approx) <= 1e-10 * scale

    def test_construct_error_at_desk_scale(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(4096)
        h = build_hss(spec, ps, nleaf=256, max_rank=100)
        assert construct_error(h, spec, ps, seed=0) <= 1e-5

    def test_invalid_sizes_named(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(256)
        with pytest.raises(ValueError, match="must be positive"):
            build_hss(spec, ps, nleaf=0, max_rank=1)
        with pytest.raises(ValueError, match="single block"):
            build_hss(spec, ps, nleaf=256, max_rank=50)
        with pytest.raises(ValueError, match="exceeds nleaf"):
            build_hss(spec, ps, nleaf=64, max_rank=65)
        # halving 9 points into leaves of one would leave an empty leaf
        with pytest.raises(ValueError, match="cannot be halved"):
            build_hss(spec, generate_grid(9), nleaf=1, max_rank=1)


@pytest.mark.parametrize("one_level, n, nleaf, level, sizes", [
    (False, 1024, 256, 2, [[1024], [512] * 2, [256] * 4]),
    (False, 256, 100, 2, [[256], [128] * 2, [64] * 4]),
    (False, 1250, 256, 3, [[1250], [625] * 2, [312, 313] * 2,
                           [156, 156, 156, 157, 156, 156, 156, 157]]),
    (True, 1024, 256, 1, [[1024], [256] * 4]),
    (True, 2304, 256, 1, [[2304], [256] * 9]),
    (True, 2500, 256, 1, [[2500], [256] * 9 + [196]]),
])
def test_leaf_partition(one_level, n, nleaf, level, sizes):
    # HSS halves [0, n), the first half of a range holding size // 2, and
    # keeps every level; BLR2 cuts blocks of nleaf with a shorter last one
    tree = construct._partition(n, nleaf, one_level)
    assert tree.max_level == level
    assert [list(np.diff(offsets)) for offsets in tree.offsets] == sizes
    assert all(offsets[0] == 0 and offsets[-1] == n for offsets in tree.offsets)


@settings(max_examples=200, deadline=None)
@given(nleaf=st.integers(2, 600), extra=st.integers(1, 20000), one_level=st.booleans())
def test_partition_node_table(nleaf, extra, one_level):
    # no kernel evaluation: the table alone, for any n > nleaf
    n = nleaf + extra
    tree = construct._partition(n, nleaf, one_level)
    for offsets in tree.offsets:
        assert offsets[0] == 0 and offsets[-1] == n
        assert all(a < b for a, b in zip(offsets, offsets[1:]))
    assert tree.num_nodes(0) == 1 and max(np.diff(tree.offsets[-1])) <= nleaf
    for level in range(tree.max_level):
        below, fan_outs = tree.offsets[level + 1], []
        for node in range(tree.num_nodes(level)):
            kids = tree.children(level, node)
            # the children tile the node's range exactly
            assert (below[kids.start], below[kids.stop]) == tree.offsets[level][node:node + 2]
            assert [tree.parent(level + 1, c) for c in kids] == [node] * len(kids)
            fan_outs.append(len(kids))
        assert sum(fan_outs) == tree.num_nodes(level + 1)
        if one_level:
            assert tree.max_level == 1 and fan_outs == [tree.num_nodes(1)]
        else:
            assert set(fan_outs) == {2}


class TestMatvec:
    def test_zero_vector(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(256)
        h = build_hss(spec, ps, nleaf=64, max_rank=30)
        assert np.array_equal(matvec(h, np.zeros(256)), np.zeros(256))

    def test_dimension_mismatch(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(256)
        h = build_hss(spec, ps, nleaf=64, max_rank=30)
        with pytest.raises(ValueError, match="leading dimension"):
            matvec(h, np.zeros(100))

    def test_operator_is_symmetric(self):
        spec = KernelSpec("matern")
        ps = generate_grid(256)
        h = build_hss(spec, ps, nleaf=64, max_rank=25)
        dense_op = matvec(h, np.eye(256))
        assert np.abs(dense_op - dense_op.T).max() <= 1e-12 * np.abs(dense_op).max()

    def test_matches_construct_error_definition(self):
        # construct_error is exactly the probe-vector residual of matvec
        spec = KernelSpec("yukawa")
        ps = generate_grid(1024)
        h = build_hss(spec, ps, nleaf=256, max_rank=64)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(1024)
        dense = kernel_matrix(spec, ps.points, ps.points)
        ref = dense @ b
        expected = np.linalg.norm(ref - matvec(h, b)) / np.linalg.norm(ref)
        assert construct_error(h, spec, ps, seed=0) == pytest.approx(expected, rel=1e-12)


class TestInvariants:
    def test_basis_orthonormality_everywhere(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=128, max_rank=50)
        for basis in h.bases.values():
            gram = basis.q.T @ basis.q
            assert np.linalg.norm(gram - np.eye(basis.size)) <= 1e-12

    def test_skeleton_dims_capped(self):
        spec = KernelSpec("matern")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=128, max_rank=40)
        assert all(b.skeleton_dim <= 40 for b in h.bases.values())

    def test_error_monotone_in_rank(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(1024)
        errs = [construct_error(build_hss(spec, ps, 256, rank), spec, ps, 0)
                for rank in (25, 50, 100)]
        assert errs[1] <= errs[0] + 1e-13
        assert errs[2] <= errs[1] + 1e-13

    def test_construct_error_deterministic(self):
        spec = KernelSpec("yukawa")
        ps = generate_grid(256)
        h = build_hss(spec, ps, nleaf=64, max_rank=30)
        assert construct_error(h, spec, ps, 7) == construct_error(h, spec, ps, 7)

    def test_leaf_diag_bitwise_exact(self):
        spec = KernelSpec("laplace2d")
        ps = generate_grid(512)
        h = build_hss(spec, ps, nleaf=128, max_rank=50)
        dense = kernel_matrix(spec, ps.points, ps.points)
        for i, block in enumerate(h.leaf_diag):
            lo = i * 128
            assert np.array_equal(unpacked(block, 128), dense[lo:lo + 128, lo:lo + 128])


class TestParallelBuild:
    """Both builders run as task graphs on the runtime's workers."""

    @pytest.mark.parametrize("build", [build_hss, build_blr2])
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_operator_independent_of_workers(self, kind, build):
        spec, ps = KernelSpec(kind), generate_grid(4096)
        digests = {workers: operator_digest(build(spec, ps, 256, 100, workers=workers))
                   for workers in (1, 2, 4)}
        assert len(set(digests.values())) == 1, digests

    def test_default_workers_are_the_usable_cores(self):
        spec, ps = KernelSpec("yukawa"), generate_grid(1024)
        _, stats = construct._build_tree(spec, ps, 256, 100, False, None, None)
        assert stats.workers == len(os.sched_getaffinity(0))
        assert set(stats.per_kind_seconds) == {
            "LeafBasis", "LeafCoupling", "Transfer", "Coupling"}

    def test_one_basis_and_one_coupling_task_per_upper_node(self):
        # 16 leaves: levels 1-3 hold 2 + 4 + 8 upper nodes, each with its
        # own Transfer task and, past its level's first node, its own
        # Coupling task
        spec, ps = KernelSpec("laplace2d"), generate_grid(4096)
        _, stats = construct._build_tree(spec, ps, 256, 100, False, 2, None)
        tasks = {kind: sorted((r.level, r.node) for r in stats.records if r.kind == kind)
                 for kind in ("Transfer", "Coupling")}
        upper = [(level, p) for level in (1, 2, 3) for p in range(2**level)]
        assert tasks["Transfer"] == upper
        assert tasks["Coupling"] == [(level, p) for level, p in upper if p]
        assert len(tasks["Coupling"]) == 1 + 3 + 7

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            build_hss(KernelSpec("yukawa"), generate_grid(512), 256, 100, workers=0)

    @pytest.mark.parametrize("build", [build_hss, build_blr2])
    def test_build_retains_only_the_operator(self, build):
        # a build keeps none of its working arrays once it returns: what
        # tracemalloc still holds is the operator itself (1.0019 of
        # its bytes at N = 4096; the rest is small Python objects)
        ps = generate_grid(4096)
        tracemalloc.start()
        try:
            h = build(KernelSpec("yukawa"), ps, 256, 100, workers=2)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current <= 1.01 * h.nbytes, current / h.nbytes


class TestMemoryRefusal:
    @pytest.mark.parametrize("build", [build_hss, build_blr2])
    def test_refused_before_kernel_evaluation(self, build, monkeypatch):
        calls = []
        monkeypatch.setattr(construct, "_available_bytes", lambda: 2**20)
        monkeypatch.setattr(construct, "kernel_matrix",
                            lambda *args: calls.append(args))
        with pytest.raises(InsufficientMemoryError, match="MiB are available") as err:
            build(KernelSpec("laplace2d"), generate_grid(4096), 256, 100, workers=2)
        assert isinstance(err.value, MemoryError)
        assert err.value.available == 2**20
        assert err.value.estimate > err.value.available
        assert build.__name__ in str(err.value) and "workers=2" in str(err.value)
        assert calls == []

    def test_estimate_grows_with_workers_and_pairs(self):
        tree = construct._partition(4096, 256, False)
        one = construct._peak_bytes(tree, 256, 100, 1)
        assert construct._peak_bytes(tree, 256, 100, 2) > one
        # at N = 32768 both formats keep a coupling for every pair of its
        # 128 leaves, 0.65 GB; HSS keeps the pairs of its upper levels too
        leaf_pairs = 8 * 128 * 127 // 2 * 100**2
        for one_level in (True, False):
            tree = construct._partition(32768, 256, one_level)
            assert construct._peak_bytes(tree, 256, 100, 1) > leaf_pairs

    def test_hss_peak_near_blr2_peak(self):
        # HSS keeps the leaf pairs BLR2 keeps, plus the far fewer pairs of
        # its upper levels; a packed table of the leaf couplings took it to
        # 1.7x BLR2's traced peak (183 against 109 MiB)
        ps = generate_grid(8192)
        peaks = {}
        for build in (build_hss, build_blr2):
            tracemalloc.start()
            try:
                build(KernelSpec("yukawa"), ps, 256, 100, workers=2)
                peaks[build] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[build_hss] <= 1.1 * peaks[build_blr2], peaks

    @pytest.mark.parametrize("build", [build_hss, build_blr2])
    def test_estimate_bounds_traced_peak(self, build):
        # at N = 8192, two workers, the traced peak is 0.52 (HSS) and 0.54
        # (BLR2) of the estimate; at 3136 = 56**2 (16 HSS leaves of 196
        # points, 12 BLR2 blocks of 256 and one of 64) 0.41 and 0.60
        for n in (8192, 3136):
            ps = generate_grid(n)
            tracemalloc.start()
            try:
                build(KernelSpec("yukawa"), ps, 256, 100, workers=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tree = construct._partition(n, 256, build is build_blr2)
            assert peak < construct._peak_bytes(tree, 256, 100, 2), n

    def test_normal_build_unaffected(self):
        available = construct._available_bytes()
        assert available is None or (
            construct._peak_bytes(construct._partition(4096, 256, False), 256, 100, 4)
            < available)

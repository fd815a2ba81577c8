"""ULV factorization of shared-basis trees and the matching solves.

Each diagonal block is rotated by its basis (a leaf's, which the
operator keeps as a packed triangle, is unpacked into the rotation's own
output), the redundant part is eliminated with a partial Cholesky, and
the skeleton Schur complement is deferred upward.  Off-diagonal blocks
are never touched: in the rotated coordinates they are zero outside the
skeleton corner, so sibling
couplings flow straight into the parent merge.  That removes every
same-level data dependency; only the merge links two levels.  One merge
rule, :func:`merge_children`, serves every fan-out: two children in
HSS, all blocks under the root in BLR2.  It writes a window of the
parent's block: the whole block below the root, one tile at the root.

This module holds the task bodies; :func:`hssulv.taskdag.execute` runs
them.  :func:`ulv_factor_hss` (alias :func:`ulv_factor_blr2`) is that
executor, by default on the cores as the builders are, so there is a
single factorization path for both formats, and a failing task raises
its own error naming the level and node from either entry point.

The factored form is a product, per level, of a block-diagonal basis
rotation, a block unit-lower elimination and a gather permutation,
closed by a dense Cholesky of the root block.  The root is assembled
and factored as tiles of side :data:`ROOT_TILE`, in place in one
F-ordered block: a merge task per lower tile copies in what the tile
covers as soon as the children whose diagonal blocks it covers are
factored, and each task of a right-looking tiled Cholesky (Buttari et
al., "A class of parallel tiled linear algebra algorithms for multicore
architectures", Parallel Computing 2009) starts as soon as its tiles
are ready, so the workers share the root and no tile waits for the
whole level.  The factorization is exact on the compressed operator:
compression error lives entirely in construction.

:func:`ulv_solve` reads that product twice, leaves to root and back,
each node's basis and factors once per sweep and the root factor once
per direction.  The right-hand side is checked once, at entry, and the
triangular solves call LAPACK directly, so no factor is scanned again
per call.  A block of ``k`` right-hand sides makes the same two passes,
so the factors are read once for all ``k`` columns.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._threads import single_blas_thread
from .construct import BlockBasis, HssMatrix, matvec
from .linalg import (NotPositiveDefiniteError, _potrf, partial_cholesky,
                     solve_lower, tile_gemm, tile_syrk, tile_trsm, unpack_lower)
# Not called here any more; the benchmark's traced run
# (perfbench/tracing.py) wraps factor.cholesky by name.
from .linalg import cholesky  # noqa: F401

__all__ = [
    "NodeFactor",
    "UlvFactors",
    "diagonal_product",
    "merge_children",
    "ulv_factor_blr2",
    "ulv_factor_hss",
    "ulv_solve",
    "solve_error",
    "reconstruct_check",
]

RECONSTRUCT_GUARD = 2048

# Side of the tiles the root block is assembled and factored in.  On the
# order-1600 root of yukawa BLR2 at N = 4096, two workers factored the
# operator in 54-55 ms with tiles of 400, 53-57 ms with 534, 55-59 ms
# with 800, 58 ms with 320, 62-66 ms with 200 and 82 ms untiled (medians
# of 20 rounds, two runs, 2 vCPUs); 400 gives four equal tiles there.
# An HSS root has order at most 2 * max_rank, so up to max_rank 200 it
# is one tile: one dpotrf, bitwise the untiled Cholesky.
ROOT_TILE = 400


# Side of the bands diagonal_product works in: a packed block's Q^T D is
# formed a band of PRODUCT_BAND columns at a time, and Q^T D is multiplied
# by Q a band of as many rows at a time.  At one BLAS thread a square 256
# block took 1.07 ms in row bands of 128, 1.12 ms in bands of 64 and
# 1.06 ms whole.  A yukawa BLR2 factorization at N = 2048 and two workers
# traced a peak of at most 1.17x its factor bytes in row bands of 128,
# against 1.22x whole (40 runs each).  Over the 16 yukawa leaves at
# N = 4096, a packed block took 1.48-1.49 ms against 1.28-1.31 ms square
# (medians of 40 rounds, cold caches).
PRODUCT_BAND = 128
_STRICT_LOWER = np.tri(PRODUCT_BAND, k=-1, dtype=bool)


def _symmetric_columns(up: np.ndarray, start: int, stop: int, cols: np.ndarray) -> None:
    """Columns ``start:stop`` of the symmetric matrix whose upper triangle
    the square ``up`` holds, written into ``cols``; only columns ``start:``
    of ``up`` are read."""
    w = stop - start
    cols[:stop] = up[:stop, start:stop]
    np.copyto(cols[start:stop], up[start:stop, start:stop].T, where=_STRICT_LOWER[:w, :w])
    cols[stop:] = up[start:stop, stop:].T


def diagonal_product(block: np.ndarray, basis: BlockBasis) -> np.ndarray:
    """Rotate a diagonal block into its basis: ``Q^T D Q``.

    ``block`` is ``D`` itself, square, or, for a leaf, the lower triangle of
    a symmetric ``D`` packed as :func:`~hssulv.linalg.pack_lower` gives.
    ``Q^T D`` of a square ``D`` is one product.  A packed ``D`` is unpacked
    into the product's own output, and ``Q^T D`` overwrites it a band of
    :data:`PRODUCT_BAND` columns at a time, first band first, each read
    whole from the columns not yet overwritten.  ``Q^T D`` is then
    multiplied by ``Q`` in place, a band of its rows at a time.  So the
    product holds one array of the block's size and one band, and copies
    neither ``Q`` nor ``D``.  Each entry of ``Q^T D`` is one ``dgemm`` dot
    product over the whole block, as from the square ``D``; the bits are
    the same wherever the BLAS kernel rounds a band's columns as it
    rounds them in the whole block (at orders 256 and 200, for one).
    """
    q, n = basis.q, basis.size
    block = np.asarray(block, dtype=np.float64)
    band = np.empty(n * min(PRODUCT_BAND, n))
    if block.ndim == 2:
        if block.shape != (n, n):
            raise ValueError(f"block shape {block.shape} does not match basis size {n}")
        out = q.T @ block
    else:
        out = np.empty((n, n))
        unpack_lower(block, out.T)  # D's lower triangle, column-major: its upper, row-major
        for start in range(0, n, PRODUCT_BAND):
            stop = min(start + PRODUCT_BAND, n)
            cols = band[:n * (stop - start)].reshape(n, stop - start)
            _symmetric_columns(out, start, stop, cols)
            np.matmul(q.T, cols, out=out[:, start:stop])
    for start in range(0, n, PRODUCT_BAND):
        rows = out[start:start + PRODUCT_BAND]
        product = band[:rows.size].reshape(rows.shape)
        np.matmul(rows, q, out=product)
        rows[...] = product
    return out


def _meeting(offsets: tuple, window: range) -> list:
    """The children ``c`` whose range ``offsets[c]:offsets[c + 1]`` shares
    an index with ``window``."""
    if not window:
        return []
    first = bisect_right(offsets, window.start) - 1
    return [c for c in range(first, bisect_left(offsets, window.stop))
            if offsets[c] < offsets[c + 1]]


def merge_children(dims, remainders, couplings: dict, out: np.ndarray | None = None,
                   rows: range | None = None, cols: range | None = None) -> np.ndarray:
    """Assemble window ``rows`` x ``cols`` of a parent's diagonal block from
    its children.

    Child ``a`` covers rows and columns ``offsets[a]:offsets[a + 1]`` of
    the block, where ``offsets`` are the running sums of ``dims``.  Its
    skeleton remainder ``remainders[a]``, the child's Schur complement,
    fills diagonal block ``(a, a)``, and ``couplings[(a, b)]`` (child
    ``a`` rows, child ``b`` columns, ``a < b``) fills off-diagonal block
    ``(a, b)`` and, transposed, ``(b, a)``, matching the gather
    permutation of the factored form.  Only the blocks that meet the
    window are read, so ``remainders`` may map just the children whose
    diagonal block meets it.

    Without ``out``, a new F-ordered block, the layout LAPACK reads, is
    made; ``rows`` and ``cols`` default to the whole block.  Returns
    ``out``.
    """
    offsets = tuple(accumulate(dims, initial=0))
    if out is None:
        out = np.empty((offsets[-1], offsets[-1]), order="F")
    rows = range(offsets[-1]) if rows is None else rows
    cols = range(offsets[-1]) if cols is None else cols
    col_children = _meeting(offsets, cols)
    for a in _meeting(offsets, rows):
        r0, r1 = max(rows.start, offsets[a]), min(rows.stop, offsets[a + 1])
        for b in col_children:
            c0, c1 = max(cols.start, offsets[b]), min(cols.stop, offsets[b + 1])
            if a == b:
                what, block = "skeleton remainder", remainders[a]
            else:
                what, block = "coupling", couplings[(a, b)] if a < b else couplings[(b, a)].T
            if block.shape != (dims[a], dims[b]):
                raise ValueError(f"{what} shape {block.shape} does not match the "
                                 f"children's orders ({dims[a]}, {dims[b]})")
            out[r0:r1, c0:c1] = \
                block[r0 - offsets[a]:r1 - offsets[a], c0 - offsets[b]:c1 - offsets[b]]
    return out


@dataclass(frozen=True)
class NodeFactor:
    """Retained basis and partial-Cholesky factors of one node."""

    basis: BlockBasis
    l_rr: np.ndarray
    l_sr: np.ndarray

    @property
    def width(self) -> int:
        return self.basis.size

    @property
    def redundant_dim(self) -> int:
        return self.basis.redundant_dim

    @property
    def skeleton_dim(self) -> int:
        return self.basis.skeleton_dim


@dataclass(frozen=True)
class UlvFactors:
    """Per-level node factors and the root factor.

    ``levels[l]`` lists the node factors at level ``l`` (leaf level is
    ``max_level``).
    """

    n: int
    max_level: int
    levels: dict
    root_chol: np.ndarray

    @property
    def root_dim(self) -> int:
        return self.root_chol.shape[0]


def root_dims(h: HssMatrix) -> tuple:
    """Orders of the level-1 nodes' skeletons, in the order they fill
    the root block."""
    return tuple(h.skeleton_dim(1, i) for i in range(h.tree.num_nodes(1)))


def root_tile_count(h: HssMatrix) -> int:
    """Tiles per side of the root block: its order over :data:`ROOT_TILE`,
    rounded up, and at least one.  The last tile may be shorter."""
    return max(1, -(-sum(root_dims(h)) // ROOT_TILE))


def tile_range(order: int, i: int) -> range:
    """Rows (or columns) of tile ``i`` of a root block of ``order``."""
    return range(i * ROOT_TILE, min((i + 1) * ROOT_TILE, order))


def tile_children(dims, i: int, j: int) -> list:
    """The level-1 nodes whose diagonal block, in a root block of level-1
    skeleton orders ``dims``, meets tile ``(i, j)``: the nodes whose
    skeleton remainders that tile's merge reads."""
    offsets = tuple(accumulate(dims, initial=0))
    cols = set(_meeting(offsets, tile_range(offsets[-1], j)))
    return [c for c in _meeting(offsets, tile_range(offsets[-1], i)) if c in cols]


class FactorRun:
    """What the task bodies of one factorization of ``h`` share: the tree,
    its level-1 skeleton orders ``dims``, its level-1 couplings keyed by
    node pairs as :func:`merge_children` reads them, and the root block.

    The root's first tile merge to run allocates the block, F-ordered,
    before it writes into it, so an HSS factorization, whose one root
    merge runs last, holds it only from then on.  The tile merges fill
    its lower tiles, and the tile tasks factor it in place.
    """

    def __init__(self, h: HssMatrix):
        self.h = h
        self.dims = root_dims(h)
        self.couplings = {key[1:]: block for key, block in h.coupling.items()
                          if key[0] == 1}
        self._root = None
        self._lock = threading.Lock()

    @property
    def root(self) -> np.ndarray:
        with self._lock:
            if self._root is None:
                self._root = np.empty((sum(self.dims), sum(self.dims)), order="F")
            return self._root

    @property
    def context(self) -> str:
        return (f"root block (order {sum(self.dims)}, "
                f"level-1 skeleton ranks {list(self.dims)})")


# Task bodies run by the task-graph executor with a FactorRun.  Results
# are stored under the task ids ("dp"|"pf"|"mg", level, node), and the
# runtime drops each when its last reader finishes: a rotated diagonal or
# a merged block below the root has one reader.  A partial factor leaves
# the node's factors under the side entry ("nf", level, node) for
# assemble_factors and returns its skeleton remainder, which its parent's
# merge reads; at the root the tile merges whose tiles it meets read it.
# The root's merge tasks ("asm", i, j) and tile tasks write the run's
# root block in place and store None.


def run_diag_product(run: FactorRun, results: dict, task):
    h, level, node = run.h, task.level, task.node
    if level == h.max_level:
        block = h.leaf_diag[node]
    else:
        block = results[("mg", level + 1, node)]
    return diagonal_product(block, h.bases[(level, node)])


def run_partial_factor(run: FactorRun, results: dict, task):
    level, node = task.level, task.node
    basis = run.h.bases[(level, node)]
    try:
        pf = partial_cholesky(
            results[("dp", level, node)], basis.redundant_dim,
            context=f"level {level} node {node} (skeleton rank {basis.skeleton_dim})")
    except NotPositiveDefiniteError as err:
        err.level, err.node, err.rank = level, node, basis.skeleton_dim
        raise
    results[("nf", level, node)] = NodeFactor(basis, pf.l_rr, pf.l_sr)
    return pf.ss_remainder


def run_merge(run: FactorRun, results: dict, task):
    """Below the root, assemble the whole block of parent ``task.node``,
    both triangles, which its diagonal product reads.  At the root,
    ``("asm", i, j)`` assembles lower tile ``(i, j)`` of the run's root
    block and refuses a NaN or an infinity in it."""
    h, level = run.h, task.level
    if level > 1:
        kids = h.tree.children(level - 1, task.node)
        return merge_children(
            [h.skeleton_dim(level, c) for c in kids],
            [results[("pf", level, c)] for c in kids],
            {(a, b): h.coupling[(level, kids[a], kids[b])]
             for a in range(len(kids)) for b in range(a + 1, len(kids))})
    _, i, j = task.id
    root = run.root
    rows, cols = tile_range(root.shape[0], i), tile_range(root.shape[0], j)
    merge_children(run.dims, {dep[2]: results[dep] for dep in task.deps},
                   run.couplings, root, rows, cols)
    if not np.isfinite(root[rows.start:rows.stop, cols.start:cols.stop]).all():
        raise ValueError(f"NaN or infinite entries in {run.context}, tile ({i}, {j})")
    return None


def run_root_tile(run: FactorRun, results: dict, task):
    """One step of the tiled Cholesky of the root block, in place:
    ``("potrf", k)`` factors diagonal tile ``k``, ``("trsm", i, k)`` solves
    tile ``(i, k)`` against it and zeroes its mirror ``(k, i)``,
    ``("syrk", i, k)`` and ``("gemm", i, j, k)`` subtract panel ``k`` from
    tiles ``(i, i)`` and ``(i, j)``.  Only lower tiles are read, and the
    first step on a tile waits for its merge."""
    block = run.root
    step, *ij = task.id

    def tile(i, j):
        return block[i * ROOT_TILE:(i + 1) * ROOT_TILE, j * ROOT_TILE:(j + 1) * ROOT_TILE]

    if step == "potrf":
        (k,) = ij
        _potrf(tile(k, k), run.context, first=k * ROOT_TILE)
    elif step == "trsm":
        i, k = ij
        tile_trsm(tile(k, k), tile(i, k))
        tile(k, i)[...] = 0
    elif step == "syrk":
        i, k = ij
        tile_syrk(tile(i, k), tile(i, i))
    else:
        i, j, k = ij
        tile_gemm(tile(i, k), tile(j, k), tile(i, j))


def _perm_for_level(factors: list) -> np.ndarray:
    # Gathers a level's interleaved redundant/skeleton coordinates into
    # [all redundant | all skeleton].
    red, skel = [], []
    off = 0
    for nf in factors:
        red.append(np.arange(off, off + nf.redundant_dim))
        skel.append(np.arange(off + nf.redundant_dim, off + nf.width))
        off += nf.width
    return np.concatenate(red + skel) if factors else np.empty(0, dtype=np.intp)


def assemble_factors(run: FactorRun, results: dict) -> UlvFactors:
    h = run.h
    levels = {level: [results[("nf", level, node)] for node in range(h.tree.num_nodes(level))]
              for level in range(h.max_level, 0, -1)}
    return UlvFactors(h.n, h.max_level, levels, run.root)


def ulv_factor_hss(h: HssMatrix, workers: int | None = None) -> UlvFactors:
    """ULV factorization: the task graph of ``h`` run by
    :func:`hssulv.taskdag.execute` on ``workers``, where ``None`` means the
    cores this process may use, as in the builders.  One worker runs the
    graph inline on the calling thread.  The factors are bitwise the same
    for any ``workers``.

    A failing task raises its own error, such as a
    :class:`NotPositiveDefiniteError` naming the level and node.
    """
    from . import taskdag  # taskdag imports this module

    return taskdag.execute(taskdag.build_dag(h), h, workers)[0]


# BLR2 is the one-level tree, factored by the same path.
ulv_factor_blr2 = ulv_factor_hss


def _forward_node(nf: NodeFactor, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rotated = nf.basis.q.T @ seg
    rd = nf.redundant_dim
    y_r = solve_lower(nf.l_rr, rotated[:rd])
    y_s = rotated[rd:] - nf.l_sr @ y_r
    return y_r, y_s


def _backward_node(nf: NodeFactor, y_r: np.ndarray, x_s: np.ndarray) -> np.ndarray:
    rhs = y_r - nf.l_sr.T @ x_s
    x_r = solve_lower(nf.l_rr, rhs, trans=True)
    return nf.basis.q @ np.concatenate([x_r, x_s])


@single_blas_thread
def ulv_solve(f: UlvFactors, b: np.ndarray) -> np.ndarray:
    """Solve the compressed system for ``b`` of shape ``(n,)`` or ``(n, k)``,
    sweeping leaf-to-root and back.

    Upward: rotate each block, eliminate its redundant part by forward
    substitution and keep only skeleton entries.  The root block is solved
    densely, then the mirrored downward sweep reconstructs the solution.
    A non-finite ``b`` is refused.  A 1-D ``b`` stays 1-D throughout, in
    matrix-vector products; the columns of a block go through
    matrix-matrix products and agree with their single solves to
    rounding.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != f.n:
        raise ValueError(f"right-hand side must have shape ({f.n},) or ({f.n}, k), "
                         f"got {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"right-hand side is non-finite: {b.size - np.isfinite(b).sum()} "
                         f"NaN or infinite entries")
    parked: dict = {}
    active = b
    for level in range(f.max_level, 0, -1):
        reds, skels = [], []
        off = 0
        for nf in f.levels[level]:
            y_r, y_s = _forward_node(nf, active[off:off + nf.width])
            reds.append(y_r)
            skels.append(y_s)
            off += nf.width
        parked[level] = reds
        active = np.concatenate(skels)
    w = solve_lower(f.root_chol, active)
    w = solve_lower(f.root_chol, w, trans=True)
    for level in range(1, f.max_level + 1):
        segs = []
        off = 0
        for nf, y_r in zip(f.levels[level], parked[level]):
            sk = nf.skeleton_dim
            segs.append(_backward_node(nf, y_r, w[off:off + sk]))
            off += sk
        w = np.concatenate(segs)
    return w


def solve_error(f: UlvFactors, m, seed: int) -> float:
    """Forward/backward solve residual with a random probe vector.

    Returns ``||b - A^-1 A b|| / ||b||`` where both applications use the
    compressed operator and its ULV factorization.
    """
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(f.n)
    x = ulv_solve(f, matvec(m, b))
    return float(np.linalg.norm(b - x) / np.linalg.norm(b))


@single_blas_thread
def reconstruct_check(f: UlvFactors, m) -> float:
    """Explicitly rebuild the operator from its stored factor chain.

    Multiplies out, level by level, the basis rotations, eliminations and
    gather permutations, closes with the root factor, and returns the
    relative Frobenius distance to the densified compressed operator.
    Guarded to desk scale.
    """
    n = f.n
    if n > RECONSTRUCT_GUARD:
        raise ValueError(f"n={n} exceeds the reconstruction guard {RECONSTRUCT_GUARD}")
    target = matvec(m, np.eye(n))
    chain = np.eye(n)
    start = 0
    for level in range(f.max_level, 0, -1):
        off = start
        for nf in f.levels[level]:
            cols = slice(off, off + nf.width)
            chain[:, cols] = chain[:, cols] @ nf.basis.q
            rd = nf.redundant_dim
            rcols = slice(off, off + rd)
            scols = slice(off + rd, off + nf.width)
            if rd:
                chain[:, rcols] = chain[:, rcols] @ nf.l_rr + chain[:, scols] @ nf.l_sr
            off += nf.width
        chain[:, start:] = chain[:, start:][:, _perm_for_level(f.levels[level])]
        start += sum(nf.redundant_dim for nf in f.levels[level])
    chain[:, start:] = chain[:, start:] @ f.root_chol
    rebuilt = chain @ chain.T
    return float(np.linalg.norm(rebuilt - target) / np.linalg.norm(target))

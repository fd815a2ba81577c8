"""ULV factorization of shared-basis trees and the matching solves.

Each diagonal block is rotated by its basis, the redundant part is
eliminated with a partial Cholesky, and the skeleton Schur complement is
deferred upward.  Off-diagonal blocks are never touched: in the rotated
coordinates they are zero outside the skeleton corner, so sibling
couplings flow straight into the parent merge.  That removes every
same-level data dependency; only the merge links two levels.  One merge
rule serves every fan-out: two children in HSS, all blocks under the
root in BLR2.

This module holds the task bodies; :func:`hssulv.taskdag.execute` runs
them.  :func:`ulv_factor_hss` (alias :func:`ulv_factor_blr2`) is that
executor, by default on the cores as the builders are, so there is a
single factorization path for both formats, and a failing task raises
its own error naming the level and node from either entry point.

The factored form is a product, per level, of a block-diagonal basis
rotation, a block unit-lower elimination and a gather permutation,
closed by a dense Cholesky of the root block.  The root is factored as
tiles of side :data:`ROOT_TILE` in place in the block the last merge
writes, one task per tile step of a right-looking Cholesky (Buttari et
al., "A class of parallel tiled linear algebra algorithms for multicore
architectures", Parallel Computing 2009), so the workers share it.  The
factorization is exact on the compressed operator: compression error
lives entirely in construction.

:func:`ulv_solve` reads that product twice, leaves to root and back,
each node's basis and factors once per sweep and the root factor once
per direction.  The right-hand side is checked once, at entry, and the
triangular solves call LAPACK directly, so no factor is scanned again
per call.  A block of ``k`` right-hand sides makes the same two passes,
so the factors are read once for all ``k`` columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import single_blas_thread
from .construct import BlockBasis, HssMatrix, matvec
from .linalg import (NotPositiveDefiniteError, _potrf, _require_symmetric,
                     partial_cholesky, solve_lower, tile_gemm, tile_syrk,
                     tile_trsm)
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

# Side of the tiles the root block is factored in.  On the order-1600
# root of yukawa BLR2 at N = 4096, two workers factored the operator in
# 95-100 ms with tiles of 288 to 534 (medians of 20 rounds, 2 vCPUs),
# 130 ms with 800 and 131 ms untiled; 400 gives four equal tiles there.
# An HSS root has order at most 2 * max_rank, so up to max_rank 200 it
# is one tile: one dpotrf, bitwise the untiled Cholesky.
ROOT_TILE = 400


def diagonal_product(block: np.ndarray, basis: BlockBasis) -> np.ndarray:
    """Rotate a dense diagonal block into its basis: ``Q^T D Q``."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (basis.size, basis.size):
        raise ValueError(f"block shape {block.shape} does not match basis size {basis.size}")
    return basis.q.T @ block @ basis.q


def merge_children(remainders: list, couplings: dict) -> np.ndarray:
    """Assemble a parent diagonal block from its children's skeleton remainders.

    The children's Schur complements land on the diagonal blocks, in child
    order, and ``couplings[(a, b)]`` (child ``a`` rows, child ``b``
    columns, ``a < b``) fills off-diagonal block ``(a, b)`` and, transposed,
    ``(b, a)``, matching the gather permutation of the factored form.

    The block is F-ordered, the layout LAPACK reads, so the root can be
    factored in place in it.
    """
    dims = [ss.shape[0] for ss in remainders]
    if any(ss.shape != (d, d) for ss, d in zip(remainders, dims)):
        raise ValueError("skeleton remainders must be square")
    offs = np.concatenate([[0], np.cumsum(dims)])
    out = np.empty((offs[-1], offs[-1]), order="F")
    for a, ss in enumerate(remainders):
        rows = slice(offs[a], offs[a + 1])
        out[rows, rows] = ss
        for b in range(a + 1, len(remainders)):
            block = couplings[(a, b)]
            if block.shape != (dims[a], dims[b]):
                raise ValueError(f"coupling shape {block.shape} does not match "
                                 f"remainders ({dims[a]}, {dims[b]})")
            cols = slice(offs[b], offs[b + 1])
            out[rows, cols] = block
            out[cols, rows] = block.T
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


# Task bodies run by the task-graph executor.  Results are stored under
# the task ids ("dp"|"pf"|"mg", level, node).  A rotated diagonal or a
# merged block below the root has one consumer, which pops it.  A
# partial factor's skeleton remainder is read only by its parent's merge,
# which pops the partial factor and leaves the node's factors under
# ("nf", level, node) for assemble_factors.  The root tile tasks
# factor the root's merged block ("mg", 1, 0) in place and store None.


def run_diag_product(h: HssMatrix, results: dict, task):
    level, node = task.level, task.node
    if level == h.max_level:
        block = h.leaf_diag[node]
    else:
        block = results.pop(("mg", level + 1, node))
    return diagonal_product(block, h.bases[(level, node)])


def run_partial_factor(h: HssMatrix, results: dict, task):
    level, node = task.level, task.node
    basis = h.bases[(level, node)]
    try:
        return partial_cholesky(
            results.pop(("dp", level, node)), basis.redundant_dim,
            context=f"level {level} node {node} (skeleton rank {basis.skeleton_dim})")
    except NotPositiveDefiniteError as err:
        err.level, err.node, err.rank = level, node, basis.skeleton_dim
        raise


def run_merge(h: HssMatrix, results: dict, task):
    level, parent = task.level, task.node
    kids = h.children(level - 1, parent)
    remainders = []
    for c in kids:
        pf = results.pop(("pf", level, c))
        results[("nf", level, c)] = NodeFactor(h.bases[(level, c)], pf.l_rr, pf.l_sr)
        remainders.append(pf.ss_remainder)
    return merge_children(
        remainders,
        {(a, b): h.coupling[(level, kids[a], kids[b])]
         for a in range(len(kids)) for b in range(a + 1, len(kids))})


def root_tile_count(h: HssMatrix) -> int:
    """Tiles per side of the root block: its order over :data:`ROOT_TILE`,
    rounded up, and at least one.  The last tile may be shorter."""
    order = sum(h.skeleton_dim(1, i) for i in range(h.num_nodes(1)))
    return max(1, -(-order // ROOT_TILE))


def run_root_tile(h: HssMatrix, results: dict, task):
    """One step of the tiled Cholesky of the root block, in place:
    ``("potrf", k)`` factors diagonal tile ``k``, ``("trsm", i, k)`` solves
    tile ``(i, k)`` against it and zeroes its mirror ``(k, i)``,
    ``("syrk", i, k)`` and ``("gemm", i, j, k)`` subtract panel ``k`` from
    tiles ``(i, i)`` and ``(i, j)``.  ``("potrf", 0)`` first checks the
    whole block for symmetry."""
    block = results[("mg", 1, 0)]
    step, *ij = task.id

    def tile(i, j):
        return block[i * ROOT_TILE:(i + 1) * ROOT_TILE, j * ROOT_TILE:(j + 1) * ROOT_TILE]

    if step == "potrf":
        (k,) = ij
        ranks = [h.skeleton_dim(1, i) for i in range(h.num_nodes(1))]
        context = f"root block (order {block.shape[0]}, level-1 skeleton ranks {ranks})"
        if k == 0:
            _require_symmetric(block, "a", context)
        _potrf(tile(k, k), context, first=k * ROOT_TILE)
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


def assemble_factors(h: HssMatrix, results: dict) -> UlvFactors:
    levels = {level: [results[("nf", level, node)] for node in range(h.num_nodes(level))]
              for level in range(h.max_level, 0, -1)}
    return UlvFactors(h.n, h.max_level, levels, results[("mg", 1, 0)])


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

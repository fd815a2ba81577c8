"""Shared-basis compression of kernel matrices into one tree format.

Both formats are an :class:`HssMatrix` tree that keeps the exact leaf
diagonal blocks, each symmetric and so stored once, as its packed lower
triangle, and compresses everything off the block diagonal (weak
admissibility).  Each node shares one orthonormal basis, split into
redundant and skeleton columns; blocks between sibling nodes are stored
only through their small skeleton coupling ``S_ij = Us_i^T A_ij Us_j``,
once per pair, as ``i < j``.
A node's skeleton is the span of the leading left singular vectors of its
stacked admissible blocks (a QR squeezes the wide row down to a square
triangle first), the best column space of that rank.  That QR and SVD
are LAPACK ``dgeqrt`` and ``dgesdd`` called with the GIL released
(:func:`hssulv.linalg.dominant_basis_full`), so the build's workers
compress in parallel.  A leaf compresses a sample of its admissible row
in place of the whole row, as in Xing & Chow, "Interpolative
decomposition via proxy points for kernel matrices" (SIMAX 2020): the
exact columns of its near band, and proxy points in an annulus around
the band, weighted to stand for the points beyond it (see
``NEAR_RADIUS``).  Its basis is then close to the optimum for the whole
row, not at it.
The two formats differ only in the fan-out of their :class:`Tree`:

* HSS (:func:`build_hss`) is a binary tree of depth L.  An upper-level
  basis is a transfer matrix acting on the stacked skeleton coefficients
  of its two children, so a raw-coordinate basis is never materialized.
  It compresses the couplings of its two children with every other node
  of their level, and the couplings of a level are those of the level
  below projected onto the new skeletons on both sides.  Construction
  memory is O(N * nleaf) plus the couplings of every pair of nodes on a
  level, ``(N / nleaf)**2 / 2`` skeleton blocks at the leaves, until the
  level above has read them.
* BLR2 (:func:`build_blr2`) is a one-level tree: the root has every leaf
  block as a child, and every pair of leaves is coupled.

Both builders are task graphs run by :func:`hssulv.taskdag.run_graph`,
the runtime the factorization runs on.  A ``LeafBasis`` task per leaf
evaluates its near band in one kernel call, which holds its exact
diagonal block (kept packed), and its proxies in another, and
compresses the sample into the leaf basis.  The rest of its row is never evaluated.  It then
picks ``k'`` skeleton points of the leaf, ``r + ID_OVERSAMPLE`` at most,
and an interpolation matrix ``C`` from the basis itself (an
interpolative decomposition, as in Martinsson & Rokhlin, JCP 2005, and
Ho & Greengard, SISC 2012), so that ``Us_i^T A(i, .)`` is close to
``C_i A(sk_i, .)``.  A
``LeafCoupling`` task per leaf waits for the bases of its own and every
earlier leaf, evaluates the kernel once between their skeleton points
and its own, and forms each coupling with an earlier leaf ``j`` as
``C_j A(sk_j, sk_i) C_i^T``, stored as rows of the earlier leaf.  HSS
upper levels follow the same rule, one basis task and one coupling task
per node: a ``Transfer`` task per node waits for the couplings of the
level below that hold its children's rows and compresses those rows, and
a ``Coupling`` task per node ``q >= 1`` waits for the transfer bases of
its own and every earlier node of its level and for its children's
couplings, and projects the couplings of their children.  Every task
depends on exactly what it reads, so the runtime drops each result
(``("leaf", i)``, ``("coupling", level, i)``) once its last reader has
finished.  The operator's pieces are side entries (``("diag", i)``,
``("basis", level, i)``, ``("pair", level, j, i)``) assembled in key
order, so the operator is bitwise independent of the worker count and
the schedule, and a failing task raises its own error.  Both formats
need at least two blocks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._threads import single_blas_thread, worker_count
from .geometry import PointSet
from .kernels import KernelSpec, kernel_matrix
from .linalg import (dominant_basis_full, pack_lower, pivot_columns,
                     symmetric_product, unpack_lower)

__all__ = [
    "BlockBasis",
    "HssMatrix",
    "InsufficientMemoryError",
    "build_shared_basis",
    "build_blr2",
    "build_hss",
    "matvec",
    "construct_error",
]

DENSE_STREAM_LIMIT = 65536

# A leaf's basis compresses a sample of its admissible row (Xing & Chow,
# SIMAX 2020; H2Pack, ACM TOMS 2020): the exact columns of the near band,
# every other point closer to the leaf box's centre than NEAR_RADIUS
# half-diagonals, and PROXY_COUNT proxy points for the points beyond it.
# The proxies lie on a golden-angle spiral, area-uniform in the annulus
# from the band's radius out to PROXY_OUTER times it; _PROXY_PATTERN is
# that spiral for a band of radius one.
NEAR_RADIUS = 2.0
PROXY_OUTER = 2.5
PROXY_COUNT = 256


def _proxy_pattern() -> np.ndarray:
    k = np.arange(PROXY_COUNT)
    radius = np.sqrt(1 + (PROXY_OUTER**2 - 1) * (k + 0.5) / PROXY_COUNT)
    angle = k * np.pi * (3 - np.sqrt(5))  # steps of the golden angle
    return radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)


_PROXY_PATTERN = _proxy_pattern()

# A leaf couples to the others through k' = min(leaf size, r + ID_OVERSAMPLE)
# of its points, where r is its skeleton rank.  At N = 4096 and rank 100,
# yukawa BLR2's construct error was 0.9999x that of projecting the exact
# blocks with 50, 1.0096x with 20 and 2.51x with none.
ID_OVERSAMPLE = 50


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BlockBasis:
    """Orthonormal square basis of one block row, columns ``[redundant | skeleton]``.

    ``tail`` is the relative truncation error ``||s[r:]|| / ||s||`` of the
    compressed row at the kept rank ``r``, read from the singular values
    the basis came from (0.0 when nothing was discarded or it is unknown).
    A leaf basis comes from the weighted sample of its row (near band and
    proxies), so a leaf's ``tail`` is the tail of that sample, not of the
    full admissible row.
    """

    q: np.ndarray
    redundant_dim: int
    skeleton_dim: int
    tail: float = 0.0

    def __post_init__(self):
        q = _freeze(self.q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"basis must be square, got {q.shape}")
        if self.redundant_dim + self.skeleton_dim != q.shape[1]:
            raise ValueError("redundant_dim + skeleton_dim must equal the basis size")
        object.__setattr__(self, "q", q)

    @property
    def size(self) -> int:
        return self.q.shape[0]

    @property
    def skeleton(self) -> np.ndarray:
        return self.q[:, self.redundant_dim :]


def build_shared_basis(row_block: np.ndarray, max_rank: int) -> BlockBasis:
    """Shared basis of one block row from its stacked admissible blocks.

    ``row_block`` holds the admissible blocks of the row stacked as an
    ``(m, block_size)`` matrix (each block transposed, equivalently the
    matching block column stacked).  The skeleton columns are the leading
    left singular vectors of ``row_block.T``, taken from an SVD of the
    small triangular factor of an unpivoted QR of ``row_block``, so each
    basis is the truncated-SVD optimum for its row at the given rank; the
    remaining singular vectors complete the square orthonormal basis.  The
    singular values left out give the basis its ``tail``.  The QR and the
    SVD run with the GIL released
    (:func:`~hssulv.linalg.dominant_basis_full`), so leaf tasks on
    different workers compress at the same time.
    """
    row_block = np.asarray(row_block, dtype=np.float64)
    if row_block.ndim != 2 or row_block.size == 0:
        raise ValueError("row_block is empty: no admissible blocks to compress")
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    return _truncated(*dominant_basis_full(row_block.T), max_rank)


def _truncated(q: np.ndarray, rank: int, s: np.ndarray, max_rank: int) -> BlockBasis:
    """The basis :func:`~hssulv.linalg.dominant_basis_full`'s ``q``,
    numerical ``rank`` and singular values ``s`` give at ``max_rank``."""
    size = q.shape[0]
    rank = min(rank, max_rank, size)
    total = np.linalg.norm(s)
    tail = float(np.linalg.norm(s[rank:]) / total) if total else 0.0
    # Reorder to [redundant | skeleton].
    ordered = np.hstack([q[:, rank:], q[:, :rank]])
    return BlockBasis(ordered, size - rank, rank, tail)


@dataclass(frozen=True)
class Tree:
    """Node table: node ``(level, i)`` holds points ``offsets[level][i]:offsets[level][i + 1]``.

    Level 0 is the root, ``[0, n)``, and the leaves are at ``max_level``.
    A node's children are the nodes of the level below inside its range.
    """

    offsets: tuple

    @property
    def max_level(self) -> int:
        return len(self.offsets) - 1

    def num_nodes(self, level: int) -> int:
        return len(self.offsets[level]) - 1

    def children(self, level: int, node: int) -> range:
        """Indices at ``level + 1`` of the children of node ``(level, node)``."""
        below, bounds = self.offsets[level + 1], self.offsets[level]
        return range(bisect_left(below, bounds[node]), bisect_left(below, bounds[node + 1]))

    def parent(self, level: int, node: int) -> int:
        """Index at ``level - 1`` of the parent of node ``(level, node)``."""
        return bisect_right(self.offsets[level - 1], self.offsets[level][node]) - 1


@dataclass(frozen=True)
class HssMatrix:
    """Nested-basis tree format; BLR2 is its one-level case.

    ``tree`` is the node table.  ``leaf_diag[i]`` is the exact diagonal
    block of leaf ``i``, which is symmetric, stored once: its lower
    triangle packed column by column (:func:`~hssulv.linalg.pack_lower`,
    LAPACK ``dtrttp``), ``k * (k + 1) / 2`` entries for a leaf of ``k``
    points.  ``matvec`` and the diagonal product unpack it
    (:func:`~hssulv.linalg.unpack_lower`).  ``bases[(level, i)]`` is the
    shared basis of node ``i`` at ``level`` (levels run 1..max_level, leaves at max_level; the
    root, level 0, has none).  Leaf bases act on raw coordinates; upper
    bases are transfer matrices on the stacked skeleton coefficients of
    the node's children.  ``coupling[(level, i, j)]`` couples node ``i``
    (rows) to its sibling ``j`` (columns); it holds exactly the keys with
    ``i < j`` where ``i`` and ``j`` are children of one parent, in sorted
    order, and the ``(j, i)`` block is its transpose.  That is ``nb - 1``
    blocks for an HSS tree with ``nb`` leaves and ``nb * (nb - 1) / 2``
    for BLR2.
    """

    tree: Tree
    leaf_diag: tuple
    bases: dict
    coupling: dict

    @property
    def max_level(self) -> int:
        return self.tree.max_level

    @property
    def n(self) -> int:
        return self.tree.offsets[0][-1]

    @property
    def nbytes(self) -> int:
        """Bytes the operator holds: its diagonals, bases and couplings."""
        return (sum(d.nbytes for d in self.leaf_diag)
                + sum(b.q.nbytes for b in self.bases.values())
                + sum(c.nbytes for c in self.coupling.values()))

    def skeleton_dim(self, level: int, node: int) -> int:
        return self.bases[(level, node)].skeleton_dim


class InsufficientMemoryError(MemoryError):
    """A build would need more memory than the system has available."""

    def __init__(self, what: str, estimate: int, available: int):
        self.estimate = estimate
        self.available = available
        super().__init__(
            f"{what} needs an estimated {estimate / 2**20:.0f} MiB at its peak, "
            f"but only {available / 2**20:.0f} MiB are available")


def _available_bytes() -> int | None:
    """``MemAvailable`` of ``/proc/meminfo``, or ``None`` where it is unknown."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _partition(n: int, nleaf: int, one_level: bool) -> Tree:
    """The tree of either format over ``n`` points.

    HSS halves ``[0, n)``, ``size // 2`` points first as the bisection order
    splits, until every range holds at most ``nleaf`` points, and keeps
    every level of the halving.  BLR2 cuts blocks of ``nleaf`` with a
    shorter last block, all children of the root.
    """
    if nleaf <= 0:
        raise ValueError(f"nleaf={nleaf} must be positive")
    if one_level:
        levels = [[n], [min(nleaf, n - start) for start in range(0, n, nleaf)]]
    else:
        levels = [[n]]
        while max(levels[-1]) > nleaf:
            if min(levels[-1]) < 2:
                raise ValueError(f"n={n} cannot be halved into leaves of at most "
                                 f"nleaf={nleaf} points")
            levels.append([h for s in levels[-1] for h in (s // 2, s - s // 2)])
    if len(levels[-1]) < 2:
        raise ValueError(f"n={n} with nleaf={nleaf} is a single block; "
                         "a shared-basis tree needs at least two blocks")
    return Tree(tuple(tuple(accumulate(sizes, initial=0)) for sizes in levels))


def _peak_bytes(tree: Tree, nleaf: int, max_rank: int, workers: int) -> int:
    """Upper estimate of the peak working set of a build of ``tree``, in bytes.

    Each worker runs the largest of three tasks.  A leaf task holds its near
    band's kernel block, which has the diagonal block in it, its proxies'
    block and the scaled copy of it, and its sample, and then the sample
    and the copy of it that the QR factors in place; a leaf has at most
    ``nleaf`` points, its band at most ``n``, and its sample at most ``n``
    near columns and ``PROXY_COUNT`` proxy columns.  A leaf coupling task
    holds the kernel block of every other leaf's ``k'`` skeleton points
    against its own and that block times its interpolation matrix.  An HSS
    transfer task holds its children's stacked rows, ``2 * max_rank`` by
    at most ``nb * max_rank``, which the QR factors in place; a one-level
    tree has none.  The build keeps the coupling of every pair of nodes on
    each level (a level of ``m`` nodes has ``m * (m - 1) / 2``), the
    diagonals as packed triangles of ``nleaf * (nleaf + 1) / 2`` entries,
    the leaf bases and interpolation matrices, and at most one transfer
    basis of side ``2 * max_rank`` per leaf.
    """
    n, levels = tree.offsets[0][-1], tree.max_level
    nb = tree.num_nodes(levels)
    k = min(nleaf, max_rank + ID_OVERSAMPLE)
    leaf_task = nleaf * (2 * n + 3 * PROXY_COUNT)
    coupling_task = nb * k * (k + max_rank)
    transfer_task = 0 if levels == 1 else (2 * max_rank) * (nb * max_rank)
    pairs = sum(m * (m - 1) // 2 for m in map(tree.num_nodes, range(1, levels + 1)))
    output = (nb * (nleaf * (nleaf + 1) // 2 + nleaf**2 + (2 * max_rank) ** 2 + k * max_rank)
              + pairs * max_rank**2)
    return int(8 * (workers * max(leaf_task, coupling_task, transfer_task) + output))


@dataclass(frozen=True)
class _BuildContext:
    spec: KernelSpec
    points: np.ndarray
    box: np.ndarray  # rows: the smallest and the largest coordinates of points
    tree: Tree
    max_rank: int


# Task bodies of the build graph, run by hssulv.taskdag.run_graph.  Each
# writes its pieces of the operator as side entries and returns what
# later tasks read: ("leaf", i) -> the skeleton points and interpolation
# matrix of leaf i, and ("coupling", level, i) -> the list of couplings
# (j, i) of nodes j < i with node i of a level, from a LeafCoupling task
# at the leaves and a Coupling task above.


def _leaf_sample(b: _BuildContext, i: int) -> tuple:
    """Near band, proxies and proxy weight of leaf ``i`` of the build's tree.

    The band is the indices of the other points closer than
    ``NEAR_RADIUS`` half-diagonals of the leaf's bounding box to the box's
    centre, in order.  The proxies are the spiral pattern around that
    centre with the ones outside ``b.box`` (the points' bounding box)
    dropped, unless that drops them all.  Their kernel columns are scaled
    by the weight, so that each proxy stands for an equal share of the
    points beyond the band.
    """
    r0, r1 = b.tree.offsets[-1][i:i + 2]
    x = b.points[r0:r1]
    lo, hi = x.min(axis=0), x.max(axis=0)
    centre, radius = (lo + hi) / 2, NEAR_RADIUS * np.linalg.norm(hi - lo) / 2
    offsets = b.points - centre
    inside = np.einsum("ij,ij->i", offsets, offsets) < radius**2
    near = np.flatnonzero(inside)
    proxies = centre + radius * _PROXY_PATTERN
    in_box = ((proxies >= b.box[0]) & (proxies <= b.box[1])).all(axis=1)
    if in_box.any():  # the box of a small or thin point set may hold none
        proxies = proxies[in_box]
    weight = np.sqrt((len(b.points) - len(near)) / len(proxies))
    return near[(near < r0) | (near >= r1)], proxies, weight


def _interpolation(basis: BlockBasis, r0: int) -> tuple:
    """Skeleton points and interpolation matrix of the basis of the leaf
    whose points start at ``r0``.

    The leading k' left singular vectors of the leaf's sample are
    ``u = [skeleton | q[:, :k' - r]]``, and column-pivoted QR of ``u.T``
    picks k' of the leaf's points, ``sk``.  Every vector ``v`` in the span
    of ``u`` is ``u inv(u[sk]) v[sk]``, so for the columns of the leaf's
    admissible row, ``skeleton.T A(leaf, .)`` is ``C A(sk, .)``, with ``C``
    the first r rows of ``inv(u[sk])``, up to the row's part outside that
    span.  Returns ``sk`` as point indices and ``C.T``.
    """
    r = basis.skeleton_dim
    k = min(basis.size, r + ID_OVERSAMPLE)
    u = np.hstack([basis.skeleton, basis.q[:, :k - r]])
    sk = pivot_columns(u.T)[:k]
    return r0 + sk, np.linalg.solve(u[sk].T, np.eye(k, r))


def _leaf_basis(b: _BuildContext, results: dict, task) -> tuple:
    i = task.node
    r0, r1 = b.tree.offsets[-1][i:i + 2]
    x = b.points[r0:r1]
    near, proxies, weight = _leaf_sample(b, i)
    # One kernel call for the near band with the leaf in it, in point
    # order: the band left of the leaf, the exact diagonal block and the
    # band right of it.  The rest of the row is sampled by the proxies,
    # never evaluated.
    left = np.count_nonzero(near < r0)
    band = kernel_matrix(b.spec, x, b.points[np.concatenate(
        [near[:left], np.arange(r0, r1), near[left:]])])
    # The diagonal block is bitwise symmetric, so its transpose, a
    # column-major view, packs to the same lower triangle.
    results[("diag", i)] = _freeze(pack_lower(band[:, left:left + r1 - r0].T))
    sample = np.hstack([band[:, :left], band[:, left + r1 - r0:],
                        weight * kernel_matrix(b.spec, x, proxies)])
    del band  # freed before the QR copies the sample
    basis = results[("basis", task.level, i)] = build_shared_basis(sample.T, b.max_rank)
    return _interpolation(basis, r0)


def _keep_pairs(b: _BuildContext, results: dict, task, pairs: list):
    """Write the couplings ``pairs[j]`` of nodes ``j`` with node ``i`` that
    the operator keeps, those of its earlier siblings, as side entries
    ``("pair", level, j, i)``."""
    level, i, tree = task.level, task.node, b.tree
    for j in range(tree.children(level - 1, tree.parent(level, i)).start, i):
        results[("pair", level, j, i)] = pairs[j]


def _leaf_coupling(b: _BuildContext, results: dict, task) -> list:
    # S(j, i) = C_j A(sk_j, sk_i) C_i^T for every earlier leaf j, from one
    # kernel call over their skeleton points against leaf i's.
    *earlier, (sk_i, c_i) = [results[("leaf", j)] for j in range(task.node + 1)]
    block = kernel_matrix(b.spec, b.points[np.concatenate([sk for sk, _ in earlier])],
                          b.points[sk_i]) @ c_i
    out, start = [], 0
    for sk, c in earlier:
        out.append(_freeze(c.T @ block[start:start + len(sk)]))
        start += len(sk)
    _keep_pairs(b, results, task, out)
    return out


def _pair(results: dict, level: int, i: int, j: int) -> np.ndarray:
    """Coupling of node ``i`` (rows) with node ``j`` of a level, read from
    the stored pair: the block itself for ``i < j``, else its transpose."""
    if i < j:
        return results[("coupling", level, j)][i]
    return results[("coupling", level, i)][j].T


def _transfer(b: _BuildContext, results: dict, task) -> None:
    # The rows of the node's children against every other node of their
    # level, in node order, written transposed into the one F-ordered
    # array that the QR then factors in place.
    below, kids = task.level + 1, b.tree.children(task.level, task.node)
    blocks = [[_pair(results, below, k, c) for c in kids]
              for k in range(b.tree.num_nodes(below)) if k not in kids]
    stacked = np.empty((sum(row[0].shape[0] for row in blocks),
                        sum(block.shape[1] for block in blocks[0])), order="F")
    top = 0
    for row in blocks:
        height = row[0].shape[0]
        np.concatenate(row, axis=1, out=stacked[top:top + height])
        top += height
    results[("basis", task.level, task.node)] = _truncated(
        *dominant_basis_full(stacked.T, overwrite=True), b.max_rank)


def _coupling(b: _BuildContext, results: dict, task) -> list:
    # S(p, q) = skel_p^T [S(c, d)]_{c child of p, d child of q} skel_q for p < q.
    level, q, below, kids = task.level, task.node, task.level + 1, b.tree.children
    skel_q = results[("basis", level, q)].skeleton
    out = [_freeze(results[("basis", level, p)].skeleton.T
                   @ np.block([[_pair(results, below, c, d) for d in kids(level, q)]
                               for c in kids(level, p)])
                   @ skel_q)
           for p in range(q)]
    _keep_pairs(b, results, task, out)
    return out


def _build_tree(spec: KernelSpec, ps: PointSet, nleaf: int, max_rank: int,
                one_level: bool, workers: int | None, shuffle_seed: int | None):
    """Run the build graph of either format; returns the tree and the
    runtime's :class:`~hssulv.taskdag.ExecutionStats`.

    Both formats need two or more leaves from :func:`_partition` and
    ``max_rank <= nleaf``.  A failing task raises its own
    error, such as a :class:`~hssulv.kernels.KernelEvaluationError`
    naming the distance.
    """
    from .taskdag import TaskGraph, TaskKind, run_graph  # taskdag imports this module

    tree = _partition(ps.n, nleaf, one_level)
    max_level, nb = tree.max_level, tree.num_nodes(tree.max_level)
    if max_rank > nleaf:
        raise ValueError(f"max_rank={max_rank} exceeds nleaf={nleaf}")
    workers = worker_count(workers)
    available = _available_bytes()
    estimate = _peak_bytes(tree, nleaf, max_rank, workers)
    if available is not None and estimate > available:
        raise InsufficientMemoryError(
            f"{'build_blr2' if one_level else 'build_hss'}(n={ps.n}, nleaf={nleaf}, "
            f"max_rank={max_rank}, workers={workers})", estimate, available)
    g = TaskGraph(tree)
    # Listed in run order.  Upper levels first, from level 1 down (HSS only:
    # BLR2 has one level), each node's coupling right after its basis, so
    # that the pairs of the level below that its Coupling task reads last
    # are dropped as soon as they can be.
    for level in range(1, max_level):
        for p in range(tree.num_nodes(level)):
            # Pair (k, c) is in list max(k, c), so lists kids.start and up hold kids' rows.
            kids, end = tree.children(level, p), tree.num_nodes(level + 1)
            g.add(("transfer", level, p), TaskKind.TRANSFER, level, p,
                  [("coupling", level + 1, i) for i in range(max(kids.start, 1), end)])
            if p:
                g.add(("coupling", level, p), TaskKind.COUPLING, level, p,
                      [("transfer", level, j) for j in range(p + 1)]
                      + [("coupling", level + 1, c) for c in kids])
    # Then every leaf basis before the leaf couplings, so that no basis, on
    # which the last coupling waits, queues behind the couplings of earlier
    # leaves.
    for i in range(nb):
        g.add(("leaf", i), TaskKind.LEAF_BASIS, max_level, i)
    for i in range(1, nb):
        g.add(("coupling", max_level, i), TaskKind.LEAF_COUPLING, max_level, i,
              [("leaf", j) for j in range(i + 1)])
    bodies = {TaskKind.LEAF_BASIS: _leaf_basis, TaskKind.LEAF_COUPLING: _leaf_coupling,
              TaskKind.TRANSFER: _transfer, TaskKind.COUPLING: _coupling}
    box = np.stack([ps.points.min(axis=0), ps.points.max(axis=0)])
    ctx = _BuildContext(spec, ps.points, box, tree, max_rank)
    results, stats = run_graph(g, bodies, ctx, workers, shuffle_seed=shuffle_seed)

    def side(name):  # the side entries named name, in key order
        return {key[1:]: results[key] for key in sorted(k for k in results if k[0] == name)}

    h = HssMatrix(tree, tuple(side("diag").values()), side("basis"), side("pair"))
    return h, stats


@single_blas_thread
def build_blr2(spec: KernelSpec, ps: PointSet, nleaf: int, max_rank: int, *,
               workers: int | None = None, shuffle_seed: int | None = None) -> HssMatrix:
    """Compress a kernel matrix into the single-level shared-basis format.

    The result is a one-level tree whose root has every block of ``nleaf``
    points as a child (the last block holds the rest, maybe fewer), with
    every pair of blocks coupled.  ``workers`` and ``shuffle_seed`` mean
    what they mean for :func:`hssulv.taskdag.run_graph` (``None``
    workers: the cores this process may use); the result is bitwise the
    same for any of them.  Requires ``n > nleaf`` and
    ``max_rank <= nleaf``.  Raises :class:`InsufficientMemoryError`
    before any kernel evaluation when the estimated peak working set
    exceeds the available memory.
    """
    return _build_tree(spec, ps, nleaf, max_rank, True, workers, shuffle_seed)[0]


@single_blas_thread
def build_hss(spec: KernelSpec, ps: PointSet, nleaf: int, max_rank: int, *,
              workers: int | None = None, shuffle_seed: int | None = None) -> HssMatrix:
    """Compress a kernel matrix into the multi-level nested-basis format.

    The leaves are the ranges that halving ``[0, n)`` gives once each
    holds at most ``nleaf`` points (:func:`_partition`); where ``n``
    is ``nleaf`` times a power of two, each holds ``nleaf``.  Requires
    ``n > nleaf`` and ``max_rank <= nleaf``.  The same rank cap is applied
    at every level; with ``max_rank == nleaf`` (and caps never
    binding above) the representation is exact up to rounding.
    ``workers``, ``shuffle_seed`` and the memory refusal are as in
    :func:`build_blr2`.
    """
    return _build_tree(spec, ps, nleaf, max_rank, False, workers, shuffle_seed)[0]


@single_blas_thread
def matvec(m: HssMatrix, x: np.ndarray) -> np.ndarray:
    """Apply the compressed operator to ``x`` of shape ``(n,)`` or ``(n, k)``.

    Each leaf's packed diagonal is unpacked into one buffer of the largest
    leaf's order and applied by one symmetric product for all columns.
    """
    x = np.asarray(x, dtype=np.float64)
    n = m.n
    if x.ndim not in (1, 2):
        raise ValueError(f"operand must have shape ({n},) or ({n}, k), got {x.shape}")
    if x.shape[0] != n:
        raise ValueError(f"operand has leading dimension {x.shape[0]}, expected {n}")
    if x.size == 0:  # no columns
        return np.empty((n, 0))
    work = np.asfortranarray(x.reshape(n, -1))
    tree, L, offs = m.tree, m.max_level, m.tree.offsets[-1]
    # Upward sweep: skeleton coefficients per node, leaves first.
    coeffs = {}
    for i in range(tree.num_nodes(L)):
        coeffs[(L, i)] = m.bases[(L, i)].skeleton.T @ work[offs[i]:offs[i + 1]]
    for level in range(L - 1, 0, -1):
        for i in range(tree.num_nodes(level)):
            stacked = np.concatenate([coeffs[(level + 1, c)] for c in tree.children(level, i)])
            coeffs[(level, i)] = m.bases[(level, i)].skeleton.T @ stacked
    # Sibling couplings, each stored block applied both ways; in key
    # order every node sums its terms in increasing sibling index.
    partial = {key: np.zeros_like(c) for key, c in coeffs.items()}
    for (level, i, j), s in m.coupling.items():
        partial[(level, i)] += s @ coeffs[(level, j)]
        partial[(level, j)] += s.T @ coeffs[(level, i)]
    # Downward sweep: push accumulated skeleton results to the children.
    for level in range(1, L):
        for i in range(tree.num_nodes(level)):
            down = m.bases[(level, i)].skeleton @ partial[(level, i)]
            off = 0
            for c in tree.children(level, i):
                k = coeffs[(level + 1, c)].shape[0]
                partial[(level + 1, c)] += down[off:off + k]
                off += k
    y = np.empty_like(work, order="F")
    size = max(b - a for a, b in zip(offs, offs[1:]))
    diag = np.empty((size, size), order="F")
    for i in range(tree.num_nodes(L)):
        r0, r1 = offs[i], offs[i + 1]
        block = diag[:r1 - r0, :r1 - r0]
        unpack_lower(m.leaf_diag[i], block)
        y[r0:r1] = m.bases[(L, i)].skeleton @ partial[(L, i)]
        symmetric_product(block, work[r0:r1], y[r0:r1])
    return y[:, 0] if x.ndim == 1 else y


@single_blas_thread
def construct_error(m, spec: KernelSpec, ps: PointSet, seed: int) -> float:
    """Relative compression error measured with a random probe vector.

    Returns ``||A b - M b|| / ||A b||`` where ``A`` is the exact kernel
    matrix (applied row-streaming, never fully materialized), ``M`` the
    compressed operator and ``b`` standard normal from ``seed``.
    """
    n = ps.n
    if n > DENSE_STREAM_LIMIT:
        raise ValueError(f"n={n} exceeds the streaming dense guard {DENSE_STREAM_LIMIT}")
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    offs = m.tree.offsets[-1]
    exact = np.empty(n)
    pts = ps.points
    for start, stop in zip(offs, offs[1:]):
        exact[start:stop] = kernel_matrix(spec, pts[start:stop], pts) @ b
    approx = matvec(m, b)
    return float(np.linalg.norm(exact - approx) / np.linalg.norm(exact))

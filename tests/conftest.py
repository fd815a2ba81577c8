import dataclasses

import numpy as np
import pytest

from hssulv import (BlockBasis, HssMatrix, KernelSpec, Task, TaskGraph,
                    TaskKind, build_dag, build_hss, generate_grid,
                    kernel_matrix, ulv_factor_hss)
from hssulv.construct import Tree
from hssulv.factor import FactorRun
from hssulv.linalg import pack_lower, unpack_lower
from hssulv.taskdag import _FACTOR_BODIES, run_graph


class BuildCache:
    """Session-wide cache of grids, compressed matrices and factors.

    Everything cached is immutable, so tests can share builds safely;
    this keeps the acceptance suite inside its runtime budgets.
    """

    def __init__(self):
        self._grids = {}
        self._hss = {}
        self._factors = {}
        self._dense = {}

    def grid(self, n):
        if n not in self._grids:
            self._grids[n] = generate_grid(n)
        return self._grids[n]

    def hss(self, kind, n, nleaf, max_rank):
        key = (kind, n, nleaf, max_rank)
        if key not in self._hss:
            spec = KernelSpec(kind)
            self._hss[key] = build_hss(spec, self.grid(n), nleaf, max_rank)
        return self._hss[key]

    def factors(self, kind, n, nleaf, max_rank):
        key = (kind, n, nleaf, max_rank)
        if key not in self._factors:
            self._factors[key] = ulv_factor_hss(self.hss(*key))
        return self._factors[key]

    def dense(self, kind, n):
        key = (kind, n)
        if key not in self._dense:
            pts = self.grid(n).points
            self._dense[key] = kernel_matrix(KernelSpec(kind), pts, pts)
        return self._dense[key]


@pytest.fixture(scope="session")
def cache():
    return BuildCache()


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def indefinite_root_hss():
    """A rank-1 laplace2d tree whose merged 2x2 root block is indefinite.

    The one level-1 coupling is scaled until the root block
    ``[[a, c], [c, b]]`` has ``c**2 > a * b``.
    """
    h = build_hss(KernelSpec("laplace2d"), generate_grid(1024), 128, 1)
    low = ulv_factor_hss(h).root_chol
    root = low @ low.T
    scale = 2 * np.sqrt(root[0, 0] * root[1, 1]) / abs(root[0, 1])
    coupling = dict(h.coupling)
    coupling[(1, 0, 1)] = scale * h.coupling[(1, 0, 1)]
    return dataclasses.replace(h, coupling=coupling)


def factors_equal(a, b):
    """Bitwise equality of two factorizations' root and node factors."""
    if not np.array_equal(a.root_chol, b.root_chol):
        return False
    return all(np.array_equal(x.l_rr, y.l_rr) and np.array_equal(x.l_sr, y.l_sr)
               for level in a.levels
               for x, y in zip(a.levels[level], b.levels[level]))


def packed_index(n, i, j):
    """Index of entry ``(i, j)``, ``i >= j``, of an order-``n`` lower
    triangle packed column by column, as ``HssMatrix.leaf_diag`` holds it."""
    return j * n - j * (j - 1) // 2 + i - j


def packed(a):
    """The lower triangle of the square ``a``, packed as a leaf diagonal."""
    return pack_lower(np.asfortranarray(a, dtype=np.float64))


def unpacked(p, n):
    """The symmetric order-``n`` block whose packed lower triangle is ``p``."""
    low = np.zeros((n, n), order="F")
    unpack_lower(p, low)
    return low + np.tril(low, -1).T


def leaf_block(h, i):
    """Leaf ``i``'s exact diagonal block of ``h``, unpacked."""
    offsets = h.tree.offsets[-1]
    return unpacked(h.leaf_diag[i], offsets[i + 1] - offsets[i])


def root_tree(a):
    """A one-leaf tree whose basis is all skeleton, so that its root block
    is the symmetric ``a`` itself."""
    n = a.shape[0]
    return HssMatrix(Tree(((0, n), (0, n))), (packed(a),),
                     {(1, 0): BlockBasis(np.eye(n), 0, n)}, {})


def factor_root(a, workers=1, shuffle_seed=None):
    """``a`` factored by the root's tile merges and tile tasks of its
    factorization graph alone: the level-1 partial factor they wait for
    hands them ``a`` as its skeleton remainder."""
    h = root_tree(a)
    tasks = {tid: t for tid, t in build_dag(h).tasks.items()
             if t.kind in (TaskKind.MERGE, TaskKind.ROOT_FACTOR)}
    tasks[("pf", 1, 0)] = Task(("pf", 1, 0), TaskKind.PARTIAL_FACTOR, 1, 0, frozenset())
    bodies = {**_FACTOR_BODIES, TaskKind.PARTIAL_FACTOR: lambda run, results, task: a}
    run = FactorRun(h)
    run_graph(TaskGraph(h.tree, tasks), bodies, run, workers, shuffle_seed)
    return run.root

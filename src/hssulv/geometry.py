"""Uniform 2D grids ordered by recursive coordinate bisection.

The solver operates on contiguous index blocks, so the point ordering is
what makes off-diagonal blocks low rank: points are sorted by recursively
splitting the longest bounding-box axis at the median.  Sibling index
ranges are then spatially disjoint and every range of halving ``[0, n)``
covers a compact patch of the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PointSet", "generate_grid"]


def _bisection_order(points: np.ndarray) -> np.ndarray:
    """Permutation ordering ``points`` by recursive median bisection.

    Each subset of two or more points is split along its longer
    bounding-box axis (ties prefer x), the first ``size // 2`` points in
    the first half.  Sorting is stable, so the result is deterministic.
    The recursion runs a level at a time: every segment of a level takes
    its extents from one ``reduceat`` and is sorted by one stable
    ``lexsort`` over all points, keyed by segment and then coordinate.
    """
    n = len(points)
    order = np.arange(n)
    starts = np.zeros(min(n, 1), dtype=np.intp)
    while len(starts) < n:  # some segment still holds two or more points
        p = points[order]
        extent = np.maximum.reduceat(p, starts) - np.minimum.reduceat(p, starts)
        sizes = np.diff(starts, append=n)
        segment = np.repeat(np.arange(len(starts)), sizes)
        along_y = (extent[:, 0] < extent[:, 1])[segment]
        order = order[np.lexsort((np.where(along_y, p[:, 1], p[:, 0]), segment))]
        starts = np.sort(np.concatenate([starts, (starts + sizes // 2)[sizes > 1]]))
    return order


@dataclass(frozen=True)
class PointSet:
    """Ordered 2D geometry of finite points.

    Grids from :func:`generate_grid` are in bisection order, so each range
    of halving ``[0, n)`` covers a compact patch of the domain.  Immutable
    after construction; safe to share across threads.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected (n, 2) points, got shape {pts.shape}")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"point {row} is not finite: {tuple(pts[row].tolist())}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _grid_shape(n: int) -> tuple[int, int]:
    """``(nx, ny)`` of the grid :func:`generate_grid` makes of ``n`` points."""
    if n <= 0:
        raise ValueError("n must be positive")
    root, half_root = math.isqrt(n), math.isqrt(n // 2)
    if root * root == n:
        return root, root
    if 2 * half_root * half_root == n:
        return 2 * half_root, half_root
    valid = sorted({m * m for m in range(1, math.isqrt(2 * n) + 2)}
                   | {2 * m * m for m in range(1, math.isqrt(n) + 2)})
    below = max((v for v in valid if v < n), default=1)
    above = min((v for v in valid if v > n), default=valid[-1])
    raise ValueError(f"n={n} does not form a uniform near-square grid; "
                     f"nearest valid sizes are {below} and {above}")


def generate_grid(n: int, side: float = 1.0) -> PointSet:
    """Uniform grid with equal spacing in both axes, bisection ordered.

    ``n`` must be a perfect square (square grid) or twice one (2:1 grid,
    which keeps power-of-two sizes like 512 or 2048 uniform).  The grid
    spans ``[0, side]`` along x; a 2:1 grid spans half that along y with
    the same spacing.
    """
    nx, ny = _grid_shape(n)
    if side <= 0:
        raise ValueError("side must be positive")
    h = side if nx == 1 else side / (nx - 1)
    xs = np.arange(nx) * h
    ys = np.arange(ny) * h
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    order = _bisection_order(pts)
    return PointSet(pts[order])

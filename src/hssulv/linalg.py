"""Small dense building blocks: Cholesky, the dominant basis, pivoted
columns, partial Cholesky, and the packed storage of symmetric blocks.

Everything here is a deterministic pure function backed by LAPACK through
scipy; the value added is the contracts (explicit pivot failures, rank
truncation, block splits) that the factorization layers rely on.

Every LAPACK and BLAS routine has one binding.  The factorization's
Cholesky (``dpotrf``), the tile updates of the root (``dtrsm``,
``dsyrk``, ``dgemm``), the compression behind every shared basis of a
build (``dgeqrt``, ``dgesdd``), the choice of a leaf's skeleton points
(``dgeqp3``), the packing of a leaf's diagonal block and its unpacking
(``dtrttp``, ``dtpttr``) and its product in ``matvec`` (``dsymm``) go
through :func:`_routine`: ctypes function pointers to the routines that
``scipy.linalg.cython_lapack`` and ``scipy.linalg.cython_blas`` export,
called with the GIL released and in place on F-ordered arrays or
column-major views into them, so the workers of a build or a
factorization run them side by side.  Every
triangular solve, the factorization's panel and the solve's sweeps,
goes through :func:`solve_lower`, scipy's f2py ``dtrtrs``, which holds
the GIL but costs less per call.  It is the same library that
``scipy.linalg`` calls, so the thread policy of :mod:`hssulv._threads`
covers both.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_blas, cython_lapack
from scipy.linalg.lapack import dtrtrs

__all__ = [
    "NotPositiveDefiniteError",
    "PartialFactorResult",
    "cholesky",
    "dominant_basis_full",
    "pack_lower",
    "partial_cholesky",
    "pivot_columns",
    "solve_lower",
    "symmetric_product",
    "tile_gemm",
    "tile_syrk",
    "tile_trsm",
    "unpack_lower",
]

SYMMETRY_RTOL = 1e-12
RANK_RTOL = 1e-14


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky hit a non-positive pivot; the operator is not SPD.

    A factorization task fills ``level``, ``node`` and ``rank`` (the
    node's skeleton rank) for a failing node; they stay ``None`` at the
    root and outside a factorization.
    """

    level: int | None = None
    node: int | None = None
    rank: int | None = None

    def __init__(self, pivot_index: int, pivot_value: float, context: str = ""):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        self.context = context
        where = f" in {context}" if context else ""
        super().__init__(
            f"non-positive pivot {pivot_value:.6e} at index {pivot_index}{where}"
        )


def _require_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


# Side of the square tiles the symmetry check compares (a pair of them
# stays in cache while one is read against the other's transpose) and
# the Cholesky zeroes its upper triangle by.
TILE = 128
_STRICT_UPPER = ~np.tri(TILE, dtype=bool)


def _require_symmetric(a: np.ndarray, name: str, context: str = ""):
    """Refuse a square ``a`` that holds a NaN or an infinity, or that is not
    symmetric: inputs symmetric to ``SYMMETRY_RTOL`` relative must pass,
    with slack above that.

    The test is ``|a - a.T|.max() > 10 * SYMMETRY_RTOL * |a|.max()``, taken
    one pair of tiles ``(i, j)``, ``i <= j``, at a time into one tile-sized
    buffer, so that no transposed copy of ``a`` is made.  ``|a|.max()``
    comes from the same ``max`` and ``min`` that show a non-finite entry.
    """
    if a.size == 0:
        return
    where = f" in {context}" if context else ""
    hi, lo = a.max(), a.min()
    # a NaN makes both NaN, which compares false; test explicitly
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError(f"{name} has NaN or infinite entries{where}")
    limit = 10 * SYMMETRY_RTOL * max(hi, -lo)
    n = a.shape[0]
    buf = np.empty((min(TILE, n), min(TILE, n)))
    for i in range(0, n, TILE):
        rows = slice(i, i + TILE)
        for j in range(i, n, TILE):
            cols = slice(j, j + TILE)
            diff = buf[:min(TILE, n - i), :min(TILE, n - j)]
            np.subtract(a[rows, cols], a[cols, rows].T, out=diff)
            if np.abs(diff, out=diff).max() > limit:
                raise ValueError(
                    f"{name} is not symmetric (beyond {SYMMETRY_RTOL:g} relative){where}")


def _failed_pivot_value(a: np.ndarray, k: int) -> float:
    # Recompute the failing pivot from the leading minor that did succeed.
    w = solve_lower(cholesky(a[:k, :k]), a[:k, k])
    return float(a[k, k] - w @ w)


def _potrf(a: np.ndarray, context: str = "", source: np.ndarray | None = None,
           first: int = 0) -> np.ndarray:
    """Lower Cholesky factor of the square float64 ``a``, an F-ordered
    array or a diagonal tile of one, which the caller owns and whose
    lower triangle it has checked: a copy of an input passed through
    :func:`_require_symmetric`, or a tile of the root block, assembled
    from the remainders of checked partial factors and from couplings
    placed as ``S`` and ``S.T``.  LAPACK ``dpotrf`` reads the lower
    triangle and writes the factor over it with the GIL released;
    returns ``a`` with its strictly upper triangle zeroed.

    On a non-positive pivot raises :class:`NotPositiveDefiniteError` with
    its index plus ``first`` (where the tile starts in its block) and the
    value ``dpotrf`` left on the diagonal, or, if ``a`` is a copy of
    ``source``, the value recomputed from ``source``.
    """
    n = a.shape[0]
    if n == 0:
        return a
    info = _info("dpotrf", b"L", n, a, _ld(a))
    if info:
        k = info - 1
        value = float(a[k, k]) if source is None else _failed_pivot_value(source, k)
        raise NotPositiveDefiniteError(first + k, value, context)
    for j in range(0, n, TILE):
        w = min(TILE, n - j)
        a[:j, j:j + w] = 0
        np.copyto(a[j:j + w, j:j + w], 0, where=_STRICT_UPPER[:w, :w])
    return a


def cholesky(a: np.ndarray, context: str = "") -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    ``a`` is not modified: LAPACK ``dpotrf`` factors one F-ordered copy of
    it in place, with the GIL released, and that copy is returned with its
    strictly upper triangle zeroed.

    Raises ``ValueError`` naming ``context`` for a non-finite or
    non-symmetric ``a``, and :class:`NotPositiveDefiniteError` with the
    pivot index and the value recomputed from ``a`` on failure; there is
    no automatic diagonal shift.
    """
    a = _require_square(a, "a")
    _require_symmetric(a, "a", context)
    return _potrf(np.array(a, order="F"), context, source=a)


# The tile kernels of a right-looking Cholesky.  Each runs one BLAS call
# in place on column-major float64 views into one F-ordered block, with
# the GIL released, after checking the operands' shapes.

def _require_shapes(*pairs):
    for a, shape in pairs:
        if a.shape != shape:
            raise ValueError(f"tile of shape {a.shape} where {shape} is needed")


# Widest triangle tile_trsm solves in one dtrsm call.  On a 400 x 400
# tile at one BLAS thread, one dtrsm took 2.9 ms; split down to 50 wide
# it took 1.6 ms, to 100 wide 1.7-1.8 ms and to 200 wide 2.1 ms.
TRSM_BLOCK = 64


def tile_trsm(low: np.ndarray, b: np.ndarray) -> None:
    """``b <- b @ inv(low).T`` for the lower-triangular tile ``low``.

    A triangle wider than :data:`TRSM_BLOCK` is split in half: the left
    columns of ``b`` are solved against the leading half, one
    :func:`tile_gemm` takes them out of the right columns, which are then
    solved against the trailing half.  Most of the flops so run in
    ``dgemm``, about three times the rate of ``dtrsm`` here, in place and
    with no copy.
    """
    m, n = b.shape
    _require_shapes((low, (n, n)))
    if n <= TRSM_BLOCK:
        _routine("dtrsm")(*_args(b"R", b"L", b"T", b"N", m, n, 1.0, low, _ld(low), b, _ld(b)))
        return
    h = n // 2
    tile_trsm(low[:h, :h], b[:, :h])
    tile_gemm(b[:, :h], low[h:, :h], b[:, h:])
    tile_trsm(low[h:, h:], b[:, h:])


def tile_syrk(a: np.ndarray, c: np.ndarray) -> None:
    """``c <- c - a @ a.T`` on the lower triangle of the square tile ``c``."""
    n, k = a.shape
    _require_shapes((c, (n, n)))
    _routine("dsyrk")(*_args(b"L", b"N", n, k, -1.0, a, _ld(a), 1.0, c, _ld(c)))


def tile_gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """``c <- c - a @ b.T``."""
    m, n = c.shape
    k = a.shape[1]
    _require_shapes((a, (m, k)), (b, (n, k)))
    _routine("dgemm")(*_args(b"N", b"T", m, n, k, -1.0, a, _ld(a), b, _ld(b), 1.0, c, _ld(c)))


def symmetric_product(low: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """``c <- s @ b + c`` in place, where ``s`` is the symmetric matrix
    whose lower triangle is that of the square ``low``; the strictly upper
    triangle of ``low`` is not read.  One ``dsymm`` on column-major
    float64 operands, for any number of columns of ``b``."""
    m, n = c.shape
    _require_shapes((low, (m, m)), (b, (m, n)))
    _routine("dsymm")(*_args(b"L", b"L", m, n, 1.0, low, _ld(low), b, _ld(b), 1.0, c, _ld(c)))


def pack_lower(a: np.ndarray) -> np.ndarray:
    """The lower triangle of the square column-major float64 ``a``, packed
    column by column as LAPACK stores a symmetric matrix (``dtrttp``):
    ``n * (n + 1) // 2`` entries, ``a[j:, j]`` for ``j = 0 .. n - 1``."""
    n = _require_square(a, "a").shape[0]
    packed = np.empty(n * (n + 1) // 2)
    _call("dtrttp", b"L", n, a, _ld(a), packed)
    return packed


def unpack_lower(packed: np.ndarray, out: np.ndarray) -> None:
    """Write the triangle :func:`pack_lower` packed into the lower triangle
    of the square column-major float64 ``out`` (``dtpttr``); the strictly
    upper triangle of ``out`` is left as it was."""
    n = _require_square(out, "out").shape[0]
    if packed.dtype != np.float64 or packed.shape != (n * (n + 1) // 2,):
        raise ValueError(f"packed triangle of shape {packed.shape} does not fill "
                         f"an order-{n} block")
    _call("dtpttr", b"L", n, np.ascontiguousarray(packed), out, _ld(out))


def solve_lower(low: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """``x`` with ``low @ x = b``, or ``low.T @ x = b`` if ``trans``, for a
    lower-triangular float64 ``low`` and ``b`` of shape ``(n,)`` or ``(n, k)``.

    This is LAPACK ``dtrtrs``, the routine and the layout choice of
    ``scipy.linalg.solve_triangular``, so the bits are the same.  It skips
    that function's validation and its finiteness scan of both operands,
    which reads the whole factor on every call: callers check their
    right-hand side once.
    """
    if b.size == 0:
        return np.empty_like(b, dtype=np.float64)
    if low.flags.f_contiguous:
        x, info = dtrtrs(low, b, lower=1, trans=int(trans))
    else:
        # dtrtrs reads Fortran order, where a C-ordered lower factor is upper
        x, info = dtrtrs(low.T, b, lower=0, trans=int(not trans))
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (lapack info={info})")
    return x


def _numerical_rank(s: np.ndarray) -> int:
    # singular values in descending order
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


# Own prototypes of the two C-API calls, so that the shared
# ctypes.pythonapi entries keep whatever types other code gave them.
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


@functools.cache
def _routine(name: str):
    """LAPACK or BLAS routine ``name`` as a ctypes function that releases
    the GIL.

    The pointer comes from the capsule ``scipy.linalg.cython_lapack`` or
    ``scipy.linalg.cython_blas`` exports for it; the capsule's name is the
    C signature, in which every argument is a pointer (the Fortran
    convention).
    """
    capi = cython_lapack.__pyx_capi__
    capsule = capi[name] if name in capi else cython_blas.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    nargs = signature.count(b",") + 1
    proto = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)
    return proto(_capsule_pointer(capsule, signature))


def _ld(a: np.ndarray) -> int:
    """Leading dimension of ``a``, a column-major float64 array or view."""
    if a.dtype != np.float64 or (a.shape[0] > 1 and a.strides[0] != a.itemsize):
        raise ValueError("LAPACK and BLAS need column-major float64 operands")
    return max(a.strides[1] // a.itemsize, a.shape[0], 1)


def _args(*args) -> list:
    """Fortran arguments: ints and floats by reference, arrays by their
    data pointer, bytes as they are."""
    return [ctypes.byref(ctypes.c_int(a)) if isinstance(a, int)
            else ctypes.byref(ctypes.c_double(a)) if isinstance(a, float)
            else a.ctypes.data if isinstance(a, np.ndarray) else a
            for a in args]


def _info(name: str, *args) -> int:
    """Call LAPACK ``name`` on :func:`_args`; the trailing ``info`` is
    added and returned.  A negative one, a bad argument, raises."""
    info = ctypes.c_int(0)
    _routine(name)(*_args(*args), ctypes.byref(info))
    if info.value < 0:
        raise np.linalg.LinAlgError(f"{name} failed (lapack info={info.value})")
    return info.value


def _call(name: str, *args) -> None:
    """:func:`_info` for a routine whose every nonzero ``info`` is an error."""
    info = _info(name, *args)
    if info:
        raise np.linalg.LinAlgError(f"{name} failed (lapack info={info})")


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors (all of them, ``jobz='A'``) and singular
    values of a nonempty F-ordered ``a``, which ``dgesdd`` overwrites.

    The same call as ``scipy.linalg.svd(a)``, so the same bits.
    """
    if a.dtype != np.float64 or not a.flags.f_contiguous:
        raise ValueError("the SVD needs an F-ordered float64 array")
    m, n = a.shape
    k = min(m, n)
    s = np.empty(k)
    u = np.empty((m, m), order="F")
    vt = np.empty((n, n), order="F")
    iwork = np.empty(8 * k, dtype=np.intc)

    def gesdd(work: np.ndarray, lwork: int):
        _call("dgesdd", b"A", m, n, a, m, s, u, m, vt, n, work, lwork, iwork)

    query = np.empty(1)
    gesdd(query, -1)
    lwork = int(query[0])
    gesdd(np.empty(lwork), lwork)
    return u, s


# Block size of dgeqrt: the fastest of 16, 32, 64 and 128 on a 3840 x 256
# leaf row at one BLAS thread.
QR_BLOCK = 32


def dominant_basis_full(a: np.ndarray,
                        overwrite: bool = False) -> tuple[np.ndarray, int, np.ndarray]:
    """Complete orthonormal basis ordered by the singular values of ``a``.

    Returns the full square Q (shape ``m x m``) whose leading columns span
    the dominant column space of ``a``, the numerical rank read from the
    singular values at relative tolerance ``RANK_RTOL``, and the singular
    values themselves (descending).  Truncating to the leading ``k``
    columns is the best rank-``k`` column space.  A wide input is first
    compressed to the ``m x m`` triangle of an unpivoted QR of its
    transpose, which has the same column space and singular values, so
    the SVD only ever sees a small factor.

    The QR is LAPACK's level-3 recursive ``dgeqrt``, run in place on one
    F-ordered working copy of ``a.T``, and the SVD is ``dgesdd``; both go
    through :func:`_routine`, so the GIL is released while they run.
    ``a`` is not modified, unless ``overwrite`` is set and ``a.T`` is an
    F-ordered float64 array: then a wide ``a`` is factored in place, with
    no working copy.  Raises ``ValueError`` if ``a`` holds an infinite or
    NaN entry.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("a must be 2-D")
    m, n = a.shape
    if m == 0 or n == 0:
        return np.eye(m), 0, np.zeros(0)
    if n > m:
        # a = (Q R)^T = R^T Q^T, so R^T carries the column space of a
        work = a.T if overwrite and a.T.flags.f_contiguous else np.array(a.T, order="F")
        nb = min(QR_BLOCK, m)
        _call("dgeqrt", n, m, nb, work, n, np.empty((nb, m), order="F"), nb,
              np.empty(nb * m))
        factor = np.asfortranarray(np.tril(work[:m].T))
        del work  # free the row-sized copy before the SVD allocates
    else:
        factor = np.array(a, order="F")
    # A non-finite entry of a reaches the small factor; checking there is cheap.
    if not np.isfinite(factor).all():
        raise ValueError("a must not contain infs or NaNs")
    u, s = _svd(factor)
    return u, _numerical_rank(s), s


def pivot_columns(a: np.ndarray) -> np.ndarray:
    """The columns of ``a`` in the order LAPACK's column-pivoted QR
    (``dgeqp3``) takes them, the most independent first, as 0-based
    indices.

    ``dgeqp3`` runs through :func:`_routine`, with the GIL released, on one
    F-ordered working copy of ``a``; ``a`` is not modified.
    """
    work = np.array(a, dtype=np.float64, order="F")
    if work.ndim != 2:
        raise ValueError("a must be 2-D")
    m, n = work.shape
    jpvt = np.zeros(n, dtype=np.intc)  # zero: every column is free to move
    tau = np.empty(min(m, n))

    def geqp3(buf: np.ndarray, lwork: int):
        _call("dgeqp3", m, n, work, max(m, 1), jpvt, tau, buf, lwork)

    query = np.empty(1)
    geqp3(query, -1)
    lwork = int(query[0])
    geqp3(np.empty(lwork), lwork)
    return jpvt.astype(np.intp) - 1


@dataclass(frozen=True)
class PartialFactorResult:
    """Partial Cholesky of a 2x2-split SPD block.

    ``l_rr`` is the lower factor of the leading redundant block, ``l_sr``
    the skeleton rows of the factor, and ``ss_remainder`` the Schur
    complement left on the skeleton block.
    """

    l_rr: np.ndarray
    l_sr: np.ndarray
    ss_remainder: np.ndarray


def partial_cholesky(a_hat: np.ndarray, redundant_dim: int,
                     context: str = "") -> PartialFactorResult:
    """Eliminate the leading ``redundant_dim`` block of a symmetric matrix.

    Computes ``l_rr = chol(A^RR)``, ``l_sr = A^SR (l_rr^T)^-1`` and the
    skeleton Schur complement ``A^SS - l_sr l_sr^T``.  ``a_hat`` is not
    modified; one with a NaN or an infinite entry raises a ``ValueError``
    naming ``context``.
    """
    a_hat = _require_square(a_hat, "a_hat")
    _require_symmetric(a_hat, "a_hat", context)
    n = a_hat.shape[0]
    if not 0 <= redundant_dim <= n:
        raise ValueError(f"redundant_dim {redundant_dim} outside [0, {n}]")
    rd = redundant_dim
    if rd == 0:
        return PartialFactorResult(np.zeros((0, 0)), np.zeros((n, 0)), a_hat.copy())
    leading = a_hat[:rd, :rd]
    l_rr = _potrf(np.array(leading, order="F"), context, source=leading)
    if rd == n:
        return PartialFactorResult(l_rr, np.zeros((0, rd)), np.zeros((0, 0)))
    # l_sr l_rr^T = A^SR  <=>  l_rr l_sr^T = (A^SR)^T
    l_sr = solve_lower(l_rr, a_hat[rd:, :rd].T).T
    ss = np.matmul(l_sr, l_sr.T)
    np.subtract(a_hat[rd:, rd:], ss, out=ss)  # the Schur complement, in place
    return PartialFactorResult(l_rr, l_sr, ss)

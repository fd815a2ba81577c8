"""Versioned binary container for compressed matrices (test fixtures).

Layout (little endian, 8-byte alignment not required):

    magic   4 bytes   b"HSSB"
    version u32       currently 1
    header  3 x u64   n, nleaf, max_level
    leaf diagonal blocks, node order:    each block as [u64 rows, u64 cols, f64 data]
    bases, level max_level..1, node order: [u64 size, u64 redundant_dim,
                                            u64 skeleton_dim, f64 data (size*size)]
    couplings, level max_level..1, parent order, each pair (a, b) of the
    parent's children with a < b:        [u64 rows, u64 cols, f64 data]

Matrix data is row major.  The transposed coupling ``(b, a)`` is rebuilt
on load, matching how construction stores it.

The tree shape is implied by the header: ``n / nleaf`` leaves, every level
below level 1 binary, and the root parent of all level-1 nodes.  That
covers both formats: a binary HSS tree (two nodes at level 1, one coupling
per sibling pair) and BLR2 (one level, one coupling per pair of blocks).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .construct import BlockBasis, HssMatrix, _freeze

__all__ = ["save_hss", "load_hss", "FORMAT_VERSION"]

MAGIC = b"HSSB"
FORMAT_VERSION = 1


def _sibling_pairs(h: HssMatrix, level: int):
    """Stored coupling keys of ``level``: each parent's child pairs, a < b."""
    for parent in range(h.num_nodes(level - 1)):
        kids = h.children(level - 1, parent)
        for a in range(len(kids)):
            for b in kids[a + 1:]:
                yield (level, kids[a], b)


def _write_matrix(fh, a: np.ndarray):
    a = np.ascontiguousarray(a, dtype=np.float64)
    fh.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
    fh.write(a.tobytes())


def save_hss(h: HssMatrix, path):
    """Write a compressed tree (either format) to the binary container."""
    for level in range(1, h.max_level):
        if h.num_nodes(level + 1) != 2 * h.num_nodes(level):
            raise ValueError(f"level {level + 1} is not binary; the container "
                             "stores binary levels below level 1")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<QQQ", h.n, h.nleaf, h.max_level))
        for block in h.leaf_diag:
            _write_matrix(fh, block)
        for level in range(h.max_level, 0, -1):
            for node in range(h.num_nodes(level)):
                basis = h.bases[(level, node)]
                fh.write(struct.pack("<QQQ", basis.size, basis.redundant_dim,
                                     basis.skeleton_dim))
                _write_matrix(fh, basis.q)
        for level in range(h.max_level, 0, -1):
            for key in _sibling_pairs(h, level):
                _write_matrix(fh, h.coupling[key])


class _Reader:
    """Reads that name what is missing instead of running past the end."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size

    def take(self, count: int, what: str) -> bytes:
        if count > self.left:
            raise ValueError(f"truncated {what}: needs {count} bytes, {self.left} left")
        self.left -= count
        return self.fh.read(count)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def matrix(self, limit: int) -> np.ndarray:
        rows, cols = self.unpack("<QQ", "payload")
        if rows > limit or cols > limit:
            raise ValueError(f"implausible size: {rows} x {cols} block in an "
                             f"operator of order {limit}")
        data = np.frombuffer(self.take(8 * rows * cols, "payload"), dtype="<f8")
        return _freeze(data.reshape(rows, cols).copy())


def load_hss(path) -> HssMatrix:
    """Read a compressed tree from the binary container.

    A malformed file raises ``ValueError`` naming the fault: bad magic or
    version, truncated header or payload, implausible size, or trailing
    bytes.  Loaded arrays are read-only, like built ones.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh)
        if r.take(4, "header") != MAGIC:
            raise ValueError("not an HSS container (bad magic)")
        (version,) = r.unpack("<I", "header")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported container version {version}")
        n, nleaf, max_level = r.unpack("<QQQ", "header")
        leaves, rem = divmod(n, nleaf) if nleaf else (0, 1)
        if (rem or not 1 <= max_level <= leaves.bit_length()
                or leaves % (1 << (max_level - 1))):
            raise ValueError(f"implausible size: header n={n}, nleaf={nleaf}, "
                             f"max_level={max_level}")
        leaf_diag = tuple(r.matrix(n) for _ in range(leaves))
        if any(d.shape != (nleaf, nleaf) for d in leaf_diag):
            raise ValueError(f"leaf diagonal block is not {nleaf} x {nleaf}")
        bases = {}
        for level in range(max_level, 0, -1):
            for node in range(leaves >> (max_level - level)):
                size, rd, sk = r.unpack("<QQQ", "payload")
                q = r.matrix(n)
                if q.shape != (size, size):
                    raise ValueError("basis payload shape mismatch")
                bases[(level, node)] = BlockBasis(q, rd, sk)
        coupling = {}
        h = HssMatrix(nleaf, max_level, leaf_diag, bases, coupling)
        for level in range(max_level, 0, -1):
            for key in _sibling_pairs(h, level):
                block = r.matrix(n)
                coupling[key] = block
                coupling[(level, key[2], key[1])] = _freeze(block.T)
        if r.left:
            raise ValueError(f"trailing bytes: {r.left} after the last block")
        return h

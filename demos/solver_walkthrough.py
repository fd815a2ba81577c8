"""End-to-end walkthrough of the compressed direct solver on a small problem.

Builds a kernel matrix implicitly from a 2D grid, compresses it into the
multi-level nested-basis format, factorizes with the ULV scheme, and
solves one right-hand side, comparing everything against a brute-force
dense Cholesky along the way.  Finally the single-level BLR2 format, a
one-level tree with every block under the root, goes through the same
factorization path.

Run from the repository root:  python3 demos/solver_walkthrough.py
"""

import numpy as np
import scipy.linalg as sla

from hssulv import (KernelSpec, build_blr2, build_hss, construct_error,
                    generate_grid, kernel_matrix, matvec, reconstruct_check,
                    solve_error, ulv_factor_hss, ulv_solve)

N, NLEAF, MAX_RANK, SEED = 1024, 256, 100, 0

# --- geometry: a uniform grid ordered by recursive bisection -------------
# The ordering is what makes off-diagonal blocks low rank: each tree node
# owns a contiguous index range that is also a compact patch of the square.
ps = generate_grid(N)
spec = KernelSpec("laplace2d")

# --- compression ----------------------------------------------------------
h = build_hss(spec, ps, nleaf=NLEAF, max_rank=MAX_RANK)
print(f"grid: {N} points, leaf blocks of at most {NLEAF}, "
      f"tree depth {h.max_level}")
ranks = [h.skeleton_dim(h.max_level, i) for i in range(h.tree.num_nodes(h.max_level))]
print(f"leaf skeleton ranks: {ranks}")
err = construct_error(h, spec, ps, seed=SEED)
print(f"construction error (random probe): {err:.3e}")

# The compressed operator is symmetric and close to the true kernel matrix.
dense = kernel_matrix(spec, ps.points, ps.points)
x = np.random.default_rng(SEED).standard_normal(N)
print(f"matvec deviation from dense: "
      f"{np.linalg.norm(matvec(h, x) - dense @ x) / np.linalg.norm(dense @ x):.3e}")

# --- factorization --------------------------------------------------------
# Each diagonal block is rotated by its basis and partially eliminated;
# skeleton remainders merge upward until a small root block remains.
f = ulv_factor_hss(h)
print(f"root block dimension: {f.root_dim} (vs {N} unknowns)")
print(f"factor-chain reconstruction error: {reconstruct_check(f, h):.3e}")

# --- solve ----------------------------------------------------------------
b = np.random.default_rng(SEED + 1).standard_normal(N)
x_ulv = ulv_solve(f, b)
x_dense = sla.cho_solve(sla.cho_factor(dense, lower=True), b)
rel = np.linalg.norm(x_ulv - x_dense) / np.linalg.norm(x_dense)
print(f"solve vs dense Cholesky: {rel:.3e}")
print(f"forward/backward solve residual: {solve_error(f, h, seed=SEED):.3e}")

# --- BLR2: the same tree type with one level ------------------------------
# The root has all N / NLEAF blocks as children and every pair is coupled;
# the root merge is the same rule as the binary merges above.
m = build_blr2(spec, ps, nleaf=NLEAF, max_rank=MAX_RANK)
fm = ulv_factor_hss(m)
print(f"BLR2: {m.tree.num_nodes(1)} blocks under the root, root block dimension "
      f"{fm.root_dim}, solve residual {solve_error(fm, m, seed=SEED):.3e}")

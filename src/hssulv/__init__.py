"""Fast direct solver for kernel-generated dense matrices.

Builds weak-admissibility shared-basis compressions of Green's-function
matrices as one tree type, :class:`HssMatrix`, in two fan-outs (binary
multi-level HSS, and single-level BLR2 with every block under the root),
and factorizes them in O(N) with a ULV scheme, with a simulated process
distribution and communication accounting.  Construction and
factorization are both task graphs run asynchronously by one runtime
(:func:`hssulv.taskdag.run_graph`), in which a failing task raises its
own error.  The builders and :func:`ulv_factor_hss` run on the cores by
default; the root's dense Cholesky is tile tasks on the same workers.
"""

from .bench import (ExperimentConfig, ExperimentReport, rank_accuracy_sweep,
                    run_single, scaling_sweep)
from .construct import (BlockBasis, HssMatrix, InsufficientMemoryError,
                        build_blr2, build_hss, build_shared_basis,
                        construct_error, matvec)
from .factor import (NodeFactor, UlvFactors, diagonal_product, merge_children,
                     reconstruct_check, solve_error, ulv_factor_blr2,
                     ulv_factor_hss, ulv_solve)
from .geometry import PointSet, generate_grid
from .kernels import KERNEL_KINDS, KernelEvaluationError, KernelSpec, kernel_matrix
from .linalg import (NotPositiveDefiniteError, PartialFactorResult, cholesky,
                     partial_cholesky)
from .taskdag import (CommTrace, ExecutionStats, OwnerMap, Task, TaskGraph,
                      TaskKind, assign_owners, build_dag, execute,
                      export_comm_csv, export_schedule_jsonl, simulate_comm)

__version__ = "0.1.0"

__all__ = [
    "BlockBasis", "HssMatrix", "InsufficientMemoryError", "build_blr2", "build_hss",
    "build_shared_basis", "construct_error", "matvec",
    "NodeFactor", "UlvFactors", "diagonal_product", "merge_children",
    "reconstruct_check", "solve_error", "ulv_factor_blr2", "ulv_factor_hss",
    "ulv_solve",
    "PointSet", "generate_grid",
    "KERNEL_KINDS", "KernelEvaluationError", "KernelSpec", "kernel_matrix",
    "NotPositiveDefiniteError", "PartialFactorResult", "cholesky",
    "partial_cholesky",
    "CommTrace", "ExecutionStats", "OwnerMap", "Task", "TaskGraph", "TaskKind",
    "assign_owners", "build_dag", "execute",
    "export_comm_csv", "export_schedule_jsonl", "simulate_comm",
    "ExperimentConfig", "ExperimentReport", "rank_accuracy_sweep",
    "run_single", "scaling_sweep",
]

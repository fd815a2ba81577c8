"""Benchmark harness: one experiment report, and sweeps made of its rows.

:func:`run_single` drives the full pipeline (grid, kernel compression
into an HSS or a BLR2 tree, task-graph factorization, solve) and
returns an :class:`ExperimentReport` with both error metrics, wall
times with 95% confidence intervals (of
factorization, of a solve and of a 16-column block solve), the BLAS
thread count in effect inside library calls, the operator's bytes
against the build's estimated peak working bytes, the skeleton ranks and
truncation tails reached at each tree level, the runtime's makespan,
per-kind and per-level task seconds and busy ratio of the build, and its
breakdown of the last factorization: makespan, scheduler and idle
overhead, per-kind, per-level and per-worker task seconds, and simulated
communication.  Build and factorization both run at ``workers``.
Construction is timed separately from factorization; repetitions re-run
factorization and solve on the already built operator, so the build time
carries no interval.  Each sweep row is one such report cut down to the
sweep's pinned columns.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from ._threads import blas_threads
from .construct import _build_tree, _peak_bytes, construct_error
from .factor import solve_error, ulv_solve
from .geometry import _grid_shape, generate_grid
from .kernels import KernelSpec
from .taskdag import assign_owners, build_dag, execute, simulate_comm

__all__ = [
    "SCHEMA_VERSION",
    "RANK_SWEEP_COLUMNS",
    "SCALING_COLUMNS",
    "DEFAULT_RANK_GRID",
    "ExperimentConfig",
    "ExperimentReport",
    "run_single",
    "rank_accuracy_sweep",
    "scaling_sweep",
    "write_csv",
]

SCHEMA_VERSION = 1

RANK_SWEEP_COLUMNS = [
    "schema_version", "kernel", "N", "nleaf", "max_rank",
    "construct_error", "solve_error", "status", "message",
]

SCALING_COLUMNS = [
    "schema_version", "kernel", "N", "nleaf", "max_rank", "workers",
    "repetitions", "build_seconds", "factor_seconds_mean",
    "factor_seconds_ci95", "solve_seconds_mean", "solve_seconds_ci95",
    "task_count", "status", "message",
]

# Columns of the block right-hand side timed beside the single solve.
BLOCK_RHS = 16

# Default (max_rank, nleaf) grid for the accuracy sweep.
DEFAULT_RANK_GRID = ((100, 256), (200, 256), (200, 512), (400, 512))

# The tree formats run_single builds: build_hss and build_blr2.
TREES = ("hss", "blr2")


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: KernelSpec
    n: int
    nleaf: int
    max_rank: int
    workers: int = 1
    nprocs_simulated: int = 1
    seed: int = 0
    repetitions: int = 5
    tree: str = "hss"

    def __post_init__(self):
        if self.tree not in TREES:
            raise ValueError(f"tree={self.tree!r} is not one of {TREES}")
        for name in ("nleaf", "max_rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be >= 1")
        if self.max_rank > self.nleaf:
            raise ValueError(f"max_rank={self.max_rank} exceeds nleaf={self.nleaf}")
        _grid_shape(self.n)  # run_single's grid; the build checks the leaves
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.workers < 1 or self.nprocs_simulated < 1:
            raise ValueError("workers and simulated procs must be >= 1")

    def as_dict(self) -> dict:
        out = asdict(self)
        out["kernel"] = asdict(self.kernel)
        return out


def _mean_ci95(samples: list) -> tuple[float, float | None]:
    mean = float(np.mean(samples))
    if len(samples) < 2:
        return mean, None
    half = 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(len(samples))
    return mean, half


@dataclass
class ExperimentReport:
    schema_version: int
    config: dict
    # threads per OpenBLAS pool inside library calls ({"numpy": 1,
    # "scipy": 1}), None when no pool was found; workers is in config
    blas_threads: dict | None
    construct_error: float
    solve_error: float
    build_seconds: float
    # bytes the operator holds (HssMatrix.nbytes) and the build's upper
    # estimate of its peak working bytes, which the memory refusal reads
    compressed_bytes: int
    build_peak_bytes_estimate: int
    build_makespan_seconds: float
    build_per_kind_seconds: dict
    # build task seconds by tree level; the leaf tasks are at the leaf level
    build_per_level_seconds: dict
    # build task seconds / (workers x build makespan): 1.0 when no worker idles
    build_busy_ratio: float
    # the last factorization's task seconds / (workers x its makespan)
    factor_busy_ratio: float
    # the last factorization's task seconds by tree level; the root tiles
    # are level 0
    factor_per_level_seconds: dict
    factor_seconds_mean: float
    factor_seconds_ci95: float | None
    solve_seconds_mean: float
    solve_seconds_ci95: float | None
    # one ulv_solve of a (n, BLOCK_RHS) block
    solve_block16_seconds_mean: float
    solve_block16_seconds_ci95: float | None
    task_count: int
    makespan_seconds: float
    overhead_seconds: float
    per_kind_seconds: dict
    per_worker_busy_seconds: list
    max_concurrent: int
    comm_events: int
    comm_entries: int
    # per level: {"level", "min", "mean", "max", "at_cap"} skeleton ranks
    # and "tail_max", the largest relative truncation tail of its nodes
    rank_stats: list

    def as_dict(self) -> dict:
        return asdict(self)


def _rank_stats(h, max_rank: int) -> list:
    out = []
    for level in range(1, h.max_level + 1):
        ranks = [h.skeleton_dim(level, i) for i in range(h.tree.num_nodes(level))]
        tails = [h.bases[(level, i)].tail for i in range(h.tree.num_nodes(level))]
        out.append({"level": level, "min": min(ranks), "mean": float(np.mean(ranks)),
                    "max": max(ranks), "at_cap": ranks.count(max_rank),
                    "tail_max": max(tails)})
    return out


def _per_level_seconds(stats) -> dict:
    out: dict = {}
    for r in stats.records:
        out[r.level] = out.get(r.level, 0.0) + (r.end_ns - r.start_ns) / 1e9
    return dict(sorted(out.items()))


def run_single(cfg: ExperimentConfig) -> ExperimentReport:
    """Build ``cfg.tree`` and factorize it at ``cfg.workers``, solve, and
    measure errors."""
    ps = generate_grid(cfg.n)
    t0 = time.perf_counter()
    # build_hss or build_blr2, keeping the runtime's record of the build
    h, build_stats = _build_tree(cfg.kernel, ps, cfg.nleaf, cfg.max_rank,
                                 one_level=cfg.tree == "blr2", workers=cfg.workers,
                                 shuffle_seed=None)
    build_s = time.perf_counter() - t0

    graph = build_dag(h)

    rng = np.random.default_rng(cfg.seed)
    b = rng.standard_normal(cfg.n)
    block = rng.standard_normal((cfg.n, BLOCK_RHS))
    factor_times, solve_times, block_times = [], [], []
    factors = stats = None
    for _ in range(cfg.repetitions):
        t0 = time.perf_counter()
        factors, stats = execute(graph, h, cfg.workers)
        factor_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        ulv_solve(factors, b)
        solve_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        ulv_solve(factors, block)
        block_times.append(time.perf_counter() - t0)

    cons_err = construct_error(h, cfg.kernel, ps, cfg.seed)
    solv_err = solve_error(factors, h, cfg.seed)
    trace = simulate_comm(graph, assign_owners(graph, cfg.nprocs_simulated), h)

    factor_mean, factor_ci = _mean_ci95(factor_times)
    solve_mean, solve_ci = _mean_ci95(solve_times)
    block_mean, block_ci = _mean_ci95(block_times)
    return ExperimentReport(
        schema_version=SCHEMA_VERSION,
        config=cfg.as_dict(),
        blas_threads=blas_threads(),
        construct_error=cons_err,
        solve_error=solv_err,
        build_seconds=build_s,
        compressed_bytes=h.nbytes,
        build_peak_bytes_estimate=_peak_bytes(h.tree, cfg.nleaf, cfg.max_rank, cfg.workers),
        build_makespan_seconds=build_stats.makespan_seconds,
        build_per_kind_seconds=build_stats.per_kind_seconds,
        build_per_level_seconds=_per_level_seconds(build_stats),
        build_busy_ratio=build_stats.total_task_seconds
        / (cfg.workers * build_stats.makespan_seconds),
        factor_busy_ratio=stats.total_task_seconds / (cfg.workers * stats.makespan_seconds),
        factor_per_level_seconds=_per_level_seconds(stats),
        factor_seconds_mean=factor_mean,
        factor_seconds_ci95=factor_ci,
        solve_seconds_mean=solve_mean,
        solve_seconds_ci95=solve_ci,
        solve_block16_seconds_mean=block_mean,
        solve_block16_seconds_ci95=block_ci,
        task_count=len(graph),
        makespan_seconds=stats.makespan_seconds,
        # worker time inside the makespan not spent in tasks: scheduling and idle
        overhead_seconds=max(
            cfg.workers * stats.makespan_seconds - stats.total_task_seconds, 0.0),
        per_kind_seconds=stats.per_kind_seconds,
        per_worker_busy_seconds=stats.per_worker_busy_seconds,
        max_concurrent=stats.max_concurrent,
        comm_events=len(trace.events),
        comm_entries=trace.total_entries,
        rank_stats=_rank_stats(h, cfg.max_rank),
    )


def _sweep_row(columns: list, base: ExperimentConfig, **changes) -> tuple:
    """One sweep row for ``base`` with ``changes`` applied.

    The pinned columns are filled from the config and its report; a config
    that fails, when built or run, leaves its message in the row instead.
    """
    params = {**vars(base), **changes}
    row = dict.fromkeys(columns, "")
    row.update({k: v for k, v in params.items() if k in row},
               schema_version=SCHEMA_VERSION, kernel=params["kernel"].kind,
               N=params["n"], status="ok")
    try:
        report = run_single(ExperimentConfig(**params))
    except Exception as exc:
        row.update(status="error", message=str(exc))
        return row, None
    row.update({k: "" if v is None else v
                for k, v in report.as_dict().items() if k in row})
    return row, report


def rank_accuracy_sweep(kernels, rank_leaf_pairs, base: ExperimentConfig) -> list:
    """One row per (kernel, max_rank, nleaf); failures recorded per row."""
    rows = []
    for kind in kernels:
        kernel = kind if isinstance(kind, KernelSpec) else KernelSpec(kind)
        for max_rank, nleaf in rank_leaf_pairs:
            row, _ = _sweep_row(RANK_SWEEP_COLUMNS, base, kernel=kernel,
                                nleaf=nleaf, max_rank=max_rank, repetitions=1)
            rows.append(row)
    return rows


def fit_growth_exponent(ns, times) -> float:
    """Least-squares slope of log(time) against log(N)."""
    slope, _ = np.polyfit(np.log(np.asarray(ns, float)),
                          np.log(np.asarray(times, float)), 1)
    return float(slope)


def scaling_sweep(n_list, base: ExperimentConfig) -> tuple[list, float | None]:
    """Factor wall time per N plus the fitted log-log growth exponent."""
    rows = []
    fit_ns, fit_times = [], []
    for n in n_list:
        row, report = _sweep_row(SCALING_COLUMNS, base, n=n)
        rows.append(row)
        if report is not None:
            fit_ns.append(n)
            fit_times.append(report.factor_seconds_mean)
    exponent = fit_growth_exponent(fit_ns, fit_times) if len(fit_ns) >= 2 else None
    return rows, exponent


def write_csv(rows: list, columns: list, path_or_file):
    if hasattr(path_or_file, "write"):
        writer = csv.DictWriter(path_or_file, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return
    with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
        write_csv(rows, columns, fh)


def write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

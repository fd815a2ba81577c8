"""Command-line benchmark harness.

Examples:

    hssulv-bench --kernel yukawa --N 1024 --nleaf 256 --max-rank 100 \
        --workers 2 --seed 0 --reps 3 --format json
    hssulv-bench --sweep rank --N 4096 --out table.csv
    hssulv-bench --sweep scaling --N 2048,4096,8192 --nleaf 256 --max-rank 100
    hssulv-bench --tree blr2 --kernel yukawa --N 8192 --workers 2

A JSON config file may preset any option, including kernel constants:

    {"kernel": "matern", "constants": {"sigma": 1.0, "mu": 0.03, "rho": 0.5},
     "N": 4096, "nleaf": 256, "max_rank": 100}

Config-file values replace the option defaults, so explicit command-line
flags override them.  Exit status is zero only if every requested row
succeeded.  A failure writes a JSON object to stderr with ``status``,
``error`` (the exception's class name) and ``message``; a
:class:`~hssulv.linalg.NotPositiveDefiniteError` adds its ``pivot_index``,
``pivot_value`` and ``context`` (the level, node and skeleton rank, or the
root block), and the failing node's ``level``, ``node`` and skeleton
``rank`` as numbers (``null`` at the root).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (DEFAULT_RANK_GRID, RANK_SWEEP_COLUMNS, SCALING_COLUMNS,
                    TREES, ExperimentConfig, rank_accuracy_sweep, run_single,
                    scaling_sweep, write_csv, write_json)
from .kernels import KERNEL_KINDS, KernelSpec
from .linalg import NotPositiveDefiniteError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hssulv-bench",
        description="Benchmark the compressed kernel-matrix direct solver.")
    p.add_argument("--kernel", choices=KERNEL_KINDS, default=None,
                   help="kernel kind (default laplace2d; rank sweep runs all)")
    p.add_argument("--N", default="4096",
                   help="problem size; comma separated list for --sweep scaling")
    p.add_argument("--tree", choices=TREES, default="hss",
                   help="compressed format: multi-level hss or single-level blr2")
    p.add_argument("--nleaf", type=int, default=256, help="leaf block size")
    p.add_argument("--max-rank", type=int, default=100, help="skeleton rank cap")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads of the one runtime that runs both the "
                        "build and the factorization")
    p.add_argument("--procs", type=int, default=1,
                   help="simulated process count for communication accounting")
    p.add_argument("--seed", type=int, default=0, help="probe-vector seed")
    p.add_argument("--reps", type=int, default=5, help="timing repetitions")
    p.add_argument("--sweep", choices=("rank", "scaling"), default=None,
                   help="run a sweep instead of a single experiment")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="output format (sweeps default to csv, reports to json)")
    p.add_argument("--config", default=None, help="JSON config file")
    return p


def _parse(argv) -> tuple[argparse.Namespace, dict]:
    """Options and kernel constants; a config file replaces the defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args, {}
    with open(args.config, "r", encoding="utf-8") as fh:
        file_cfg = json.load(fh)
    constants = dict(file_cfg.pop("constants", {}))
    for key in file_cfg:
        if key not in vars(args) or key == "config":
            raise ValueError(f"unknown config key {key!r}")
    parser.set_defaults(**file_cfg)
    return parser.parse_args(argv), constants


def _parse_sizes(raw) -> list:
    if isinstance(raw, int):
        return [raw]
    return [int(tok) for tok in str(raw).split(",") if tok.strip()]


def _emit(payload, out, fmt, columns=None):
    if fmt == "csv":
        write_csv(payload, columns, out or sys.stdout)
    elif out:
        write_json(payload, out)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _error(exc: Exception, **extra) -> None:
    """Write the JSON error object of ``exc`` to stderr."""
    payload = {"status": "error", "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NotPositiveDefiniteError):
        payload.update(pivot_index=exc.pivot_index, pivot_value=exc.pivot_value,
                       context=exc.context, level=exc.level, node=exc.node,
                       rank=exc.rank)
    json.dump({**payload, **extra}, sys.stderr, indent=2)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    try:
        args, constants = _parse(argv)
        kernel = KernelSpec(args.kernel or "laplace2d", **constants)
        sizes = _parse_sizes(args.N)
        if not sizes:
            raise ValueError(f"--N names no size, got {args.N!r}")
        if len(sizes) != 1 and args.sweep != "scaling":
            raise ValueError(f"--N takes one size unless --sweep scaling, got {args.N!r}")
        base = ExperimentConfig(
            kernel=kernel, n=sizes[0], nleaf=args.nleaf, max_rank=args.max_rank,
            workers=args.workers, nprocs_simulated=args.procs, seed=args.seed,
            repetitions=args.reps, tree=args.tree)
    except Exception as exc:
        _error(exc)
        return 2

    sweep, fmt, out = args.sweep, args.format, args.out
    try:
        if sweep == "rank":
            kernels = [kernel] if args.kernel else list(KERNEL_KINDS)
            rows = rank_accuracy_sweep(kernels, DEFAULT_RANK_GRID, base)
            _emit(rows, out, fmt or "csv", RANK_SWEEP_COLUMNS)
            return 0 if all(r["status"] == "ok" for r in rows) else 1
        if sweep == "scaling":
            rows, exponent = scaling_sweep(sizes, base)
            _emit(rows, out, fmt or "csv", SCALING_COLUMNS)
            if exponent is not None:
                sys.stderr.write(f"fitted_exponent={exponent:.4f}\n")
            return 0 if all(r["status"] == "ok" for r in rows) else 1
        report = run_single(base)
        if fmt == "csv":
            payload = report.as_dict()
            flat = {k: (json.dumps(v) if isinstance(v, (dict, list)) else v)
                    for k, v in payload.items()}
            _emit([flat], out, "csv", list(flat))
        else:
            _emit(report.as_dict(), out, "json")
        return 0
    except Exception as exc:
        _error(exc, config=base.as_dict())
        return 1


if __name__ == "__main__":
    sys.exit(main())

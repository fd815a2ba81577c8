"""Benchmark of the hssulv solver, one workload per invocation.

    python3 perfbench/run.py --workload matern-4096 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints the environment and every metric
by name with its unit, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics listed in BENCHMARK.json, ``--trace 1`` the
per-layer metrics, and writes the recorded spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Exact counts derived from array shapes and the tree, not timings.
COMPUTED = {"kernels.calls", "kernels.entries", "construct.basis_calls",
            "construct.basis_input_mb", "construct.rank_mean",
            "construct.nodes_at_cap", "taskdag.tasks", "taskdag.comm_events",
            "taskdag.comm_entries"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> dict:
    """Thread counts of the OpenBLAS builds numpy and scipy loaded.

    Read through each library's own getter, opened with RTLD_NOLOAD so that
    only an already-loaded library answers; the counts are never set.
    """
    import numpy
    import scipy

    out = {}
    for pkg, pattern, symbol in (
            (numpy, "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
            (scipy, "scipy.libs/libscipy_openblas*.so", "scipy_openblas_get_num_threads")):
        site = Path(pkg.__file__).resolve().parent.parent
        for path in glob.glob(str(site / pattern)):
            try:
                getter = getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY), symbol)
            except (OSError, AttributeError):
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            out[pkg.__name__] = getter()
    return out


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``; a plain source tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hssulv" / "__init__.py").is_file():
        print(f"error: no hssulv sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import workloads
    import_s = time.perf_counter() - t0

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    client = workloads.Client(w, args.seed)
    setup = workloads.set_up(client, import_s)
    threads = blas_threads()
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    if args.trace:
        metrics = workloads.run_traced(client, out / f"spans-{w.name}-seed{args.seed}.jsonl")
        metrics["env.blas_threads"] = (threads.get("numpy", 0), "count")
        metrics["env.workers"] = (workloads.WORKERS, "count")
        declared = spec["per_layer"]
        counts = {}
    else:
        metrics, counts = workloads.run_untraced(client, setup, args.seconds, out)
        declared = spec["end_to_end"]

    metrics = {name: (int(v) if isinstance(v, (int, numpy.integer)) else float(v), unit)
               for name, (v, unit) in metrics.items()}
    print(f"workload {w.name} seed {args.seed} trace {args.trace} "
          f"attempted {client.ledger.attempted} failed {client.ledger.failed} "
          + " ".join(f"{k} {v}" for k, v in counts.items()))
    print(f"env nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} "
          f"blas_threads {threads} workers {workloads.WORKERS} "
          f"numpy {numpy.__version__} scipy {scipy.__version__} "
          f"python {platform.python_version()} commit {git_commit()}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:32s} {value!r} {unit}" + ("  (computed)" if name in COMPUTED else ""))

    units = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != units:
        print(f"error: reported metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(units.items())}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": client.ledger.failed == 0,
        "attempted": client.ledger.attempted,
        "failed": client.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

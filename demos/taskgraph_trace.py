"""Executing the factorization as an asynchronous task graph.

Shows the task counts and dependency depth, runs the graph on a worker
pool, verifies the factors match ``ulv_factor_hss`` at workers=1
bitwise, looks for the asynchrony witness (a merge finishing before its
level has drained), and simulates a row-cyclic process distribution to count inter-owner
transfers.  Exports the schedule (JSON lines) and the communication
totals (CSV) next to this script.

Run from the repository root:  python3 demos/taskgraph_trace.py
"""

import pathlib

import numpy as np

from hssulv import (KernelSpec, TaskKind, assign_owners, build_dag,
                    build_hss, execute, export_comm_csv,
                    export_schedule_jsonl, generate_grid, simulate_comm,
                    ulv_factor_hss)

N, NLEAF, MAX_RANK, WORKERS, PROCS = 4096, 256, 100, 4, 4
OUT = pathlib.Path(__file__).parent

ps = generate_grid(N)
h = build_hss(KernelSpec("yukawa"), ps, nleaf=NLEAF, max_rank=MAX_RANK)

graph = build_dag(h)
counts = graph.kind_counts()
print(f"tasks: {len(graph)} total, {counts}")

owners = assign_owners(graph, PROCS)
leaf_owner = [owners.owner_of(h.max_level, i) for i in range(h.tree.num_nodes(h.max_level))]
print(f"leaf owners (round robin over {PROCS} ranks): {leaf_owner}")

# --- executor: dependency-driven, deterministic results -------------------
factors, stats = execute(graph, h, workers=WORKERS)
inline = ulv_factor_hss(h, workers=1)  # the same executor, inline
same = np.array_equal(factors.root_chol, inline.root_chol)
print(f"factors with {WORKERS} workers match workers=1 bitwise: {same}")
print(f"makespan {stats.makespan_seconds * 1e3:.1f} ms, "
      f"max concurrency {stats.max_concurrent}, "
      f"per kind (ms): "
      f"{ {k: round(v * 1e3, 1) for k, v in stats.per_kind_seconds.items()} }")

for level in range(h.max_level, 0, -1):
    merges = [r for r in stats.records if r.kind == TaskKind.MERGE and r.level == level]
    pfs = [r for r in stats.records
           if r.kind == TaskKind.PARTIAL_FACTOR and r.level == level]
    if merges and pfs:
        early = min(m.end_ns for m in merges) < max(p.start_ns for p in pfs)
        print(f"level {level}: merge completed before level drained: {early}")

# --- simulated distribution: who ships blocks to whom ---------------------
trace = simulate_comm(graph, owners, h)
print(f"cross-owner transfers: {len(trace.events)} events, "
      f"{trace.total_entries} matrix entries")
for (src, dst), (events, entries) in sorted(trace.totals_by_pair().items()):
    print(f"  rank {src} -> rank {dst}: {events} transfers, {entries} entries")

export_schedule_jsonl(stats, owners, OUT / "schedule_trace.jsonl")
export_comm_csv(trace, OUT / "comm_trace.csv")
print(f"wrote {OUT / 'schedule_trace.jsonl'} and {OUT / 'comm_trace.csv'}")

"""The one task-graph runtime, the ULV factorization's graph on it, and a
simulated multi-process distribution with communication accounting.

:func:`run_graph` runs any task graph from three things: the tasks'
dependencies, a body per task kind, and the workers.  A task's id is the
key its result is stored under, and the result lives until the last task
that depends on it finishes; tasks start when their dependencies have
finished, and the ready task with the smallest priority goes first.  A
failing task raises its own error.  Execution is shared memory: the
calling thread is worker 0 and ``workers - 1`` threads join it, so one
worker runs the graph inline.  Construction
(:func:`hssulv.construct.build_hss`, :func:`hssulv.construct.build_blr2`)
and factorization (:func:`execute`) are both graphs on this one loop,
with one schedule record and one determinism guarantee.

The factorization graph is built from the tree of either format: per
level there is one diagonal-product and one partial-factor task per node
and one merge per parent below the root; the root is assembled by one
merge task per lower tile, and the tile tasks of its Cholesky close the
graph.  The only edges between nodes are produced by the merge step, so
a merge can fire as soon as the children it reads finish (two in HSS),
independent of the rest of its level, and a root tile as soon as the
children whose diagonal blocks it covers finish (at most a few of the
blocks in BLR2, none for most off-diagonal tiles).
:func:`hssulv.factor.ulv_factor_hss` is :func:`execute` on this graph.

The simulated "process" distribution is pure accounting, kept out of the
runtime: block rows are owned round-robin at the leaf level, every
merged parent inherits its first child's owner, and a task runs on the
owner of the node it builds (the merges ``("mg", l, p)`` build node
``(l - 1, p)``, the root's tile merges ``("asm", i, j)`` the root).  A
transfer event is recorded for every dependency edge whose endpoints
resolve to different owners: a child's skeleton remainder, or the part
of it that a root tile holds, read by its parent's merge.  The schedule
export computes the owners when writing.
"""

from __future__ import annotations

import heapq
import json
import random
import threading
import time
from dataclasses import dataclass, field
from itertools import accumulate

from ._threads import single_blas_thread, worker_count
from .construct import HssMatrix, Tree
from .factor import (FactorRun, UlvFactors, assemble_factors, root_dims,
                     root_tile_count, run_diag_product, run_merge,
                     run_partial_factor, run_root_tile, tile_children,
                     tile_range)

__all__ = [
    "TaskKind",
    "Task",
    "TaskGraph",
    "OwnerMap",
    "CommTrace",
    "TaskRecord",
    "ExecutionStats",
    "build_dag",
    "assign_owners",
    "execute",
    "run_graph",
    "simulate_comm",
    "export_schedule_jsonl",
    "export_comm_csv",
]


class TaskKind:
    # construction (hssulv.construct): one basis and one coupling task per
    # node, at the leaves and at every upper level of an HSS tree
    LEAF_BASIS = "LeafBasis"
    LEAF_COUPLING = "LeafCoupling"
    TRANSFER = "Transfer"
    COUPLING = "Coupling"
    # factorization
    DIAG_PRODUCT = "DiagProduct"
    PARTIAL_FACTOR = "PartialFactor"
    MERGE = "Merge"
    ROOT_FACTOR = "RootFactor"


_KIND_ORDER = {
    TaskKind.LEAF_BASIS: 0,
    TaskKind.LEAF_COUPLING: 1,
    TaskKind.TRANSFER: 0,
    TaskKind.COUPLING: 1,
    TaskKind.DIAG_PRODUCT: 0,
    TaskKind.PARTIAL_FACTOR: 1,
    TaskKind.MERGE: 2,
    TaskKind.ROOT_FACTOR: 3,
}


_TILE_STEP = {"potrf": 0, "trsm": 1, "syrk": 2, "gemm": 2}


@dataclass(frozen=True)
class Task:
    """One step of a task graph; ``deps`` are ids that must finish first.

    ``id`` is also the key the task's result is stored under, such as
    ``("pf", level, node)``.  Among ready tasks, the one with the smallest
    :meth:`priority` runs first.
    """

    id: tuple
    kind: str
    level: int
    node: int
    deps: frozenset

    def priority(self) -> tuple:
        # Depth first: a node's partial factor runs right after its own
        # diagonal product, which it consumes.  Merges feed the level
        # above; rank them with it so the path toward the root drains
        # first on ties.  In the build, an upper node's coupling ranks right
        # after its basis, so the pairs of the level below that its
        # Coupling task reads last are dropped as soon as they can be.  At
        # the leaves every basis goes first, then the couplings, so that no
        # leaf basis, on which the last coupling waits, queues behind the
        # couplings of earlier leaves.
        if self.kind in (TaskKind.LEAF_BASIS, TaskKind.LEAF_COUPLING):
            return (self.level, _KIND_ORDER[self.kind], self.node)
        level = self.level - 1 if self.kind == TaskKind.MERGE else self.level
        head = (level, self.node, _KIND_ORDER[self.kind])
        if self.kind == TaskKind.ROOT_FACTOR:
            # Root tiles by the column they write, then by panel: the
            # updates of the next column and its factor run before the
            # rest of a panel's updates, as a lookahead would.
            step, *tile = self.id
            column = tile[1] if step == "gemm" else tile[0] if step == "syrk" else tile[-1]
            return head + (column, tile[-1], _TILE_STEP[step], tile[0])
        return head


@dataclass
class TaskGraph:
    tree: Tree | None  # the node table the graph was built from, if any
    tasks: dict

    def __len__(self) -> int:
        return len(self.tasks)

    def dependents(self) -> dict:
        out = {tid: [] for tid in self.tasks}
        for task in self.tasks.values():
            for dep in task.deps:
                if dep not in out:
                    raise ValueError(f"task {task.id} depends on unknown id {dep}")
                out[dep].append(task.id)
        return out

    def kind_counts(self) -> dict:
        counts: dict = {}
        for task in self.tasks.values():
            counts[task.kind] = counts.get(task.kind, 0) + 1
        return counts


def build_dag(h: HssMatrix) -> TaskGraph:
    """Task graph of the ULV factorization of ``h``.

    A diagonal product and a partial factor per node per level, a merge
    ``("mg", level, parent)`` per parent below the root, and the root's
    tiled Cholesky.  With ``t`` tiles per side
    (:func:`hssulv.factor.root_tile_count`) the root has a merge
    ``("asm", i, j)`` per lower tile, which waits for the partial factors
    of the level-1 nodes whose diagonal blocks meet the tile; then a
    ``("potrf", k)`` per diagonal tile, a ``("trsm", i, k)`` per tile below
    it, and a ``("syrk", i, k)`` or ``("gemm", i, j, k)`` per lower tile
    ``(i, i)`` or ``(i, j)`` and earlier panel ``k``: ``T(t) = t + t*(t-1)
    + t*(t-1)*(t-2)/6`` tasks, all of kind ``RootFactor`` at level 0.  The
    first step on a tile waits for the tile's merge, and its updates are
    chained in panel order, so its bits do not depend on the schedule.
    For a binary tree of depth ``L``, whose root is one tile, that is
    ``2*(2**(L+1) - 2) + (2**L - 1) + 1`` tasks; for BLR2 with ``nb``
    blocks ``2*nb + t*(t+1)/2 + T(t)``.
    """
    L, tree = h.max_level, h.tree
    tasks = {}

    def add(tid, kind, level, node, deps):
        tasks[tid] = Task(tid, kind, level, node, frozenset(deps))

    for level in range(L, 0, -1):
        for node in range(tree.num_nodes(level)):
            dp, pf = ("dp", level, node), ("pf", level, node)
            add(dp, TaskKind.DIAG_PRODUCT, level, node,
                () if level == L else [("mg", level + 1, node)])
            add(pf, TaskKind.PARTIAL_FACTOR, level, node, [dp])
        if level > 1:
            for parent in range(tree.num_nodes(level - 1)):
                add(("mg", level, parent), TaskKind.MERGE, level, parent,
                    [("pf", level, c) for c in tree.children(level - 1, parent)])
    t, dims = root_tile_count(h), root_dims(h)
    for j in range(t):
        for i in range(j, t):
            add(("asm", i, j), TaskKind.MERGE, 1, 0,
                [("pf", 1, c) for c in tile_children(dims, i, j)])

    def after(tid, k, i, j):  # the previous update of tile (i, j), or its merge
        return tid if k else ("asm", i, j)

    for k in range(t):
        add(("potrf", k), TaskKind.ROOT_FACTOR, 0, 0, [after(("syrk", k, k - 1), k, k, k)])
        for i in range(k + 1, t):
            add(("trsm", i, k), TaskKind.ROOT_FACTOR, 0, 0,
                [("potrf", k), after(("gemm", i, k, k - 1), k, i, k)])
            add(("syrk", i, k), TaskKind.ROOT_FACTOR, 0, 0,
                [("trsm", i, k), after(("syrk", i, k - 1), k, i, i)])
            for j in range(k + 1, i):
                add(("gemm", i, j, k), TaskKind.ROOT_FACTOR, 0, 0,
                    [("trsm", i, k), ("trsm", j, k), after(("gemm", i, j, k - 1), k, i, j)])
    return TaskGraph(tree, tasks)


@dataclass(frozen=True)
class OwnerMap:
    """Simulated process ownership: (level, node) -> rank.

    Leaf nodes go round-robin by node index; every merged parent is owned
    by its first child's owner, so ancestors collapse onto the leftmost
    descendant leaf's rank.  The root's tile merges and tile tasks run on
    the root's owner.
    """

    nprocs: int
    assignment: dict

    def owner_of(self, level: int, node: int) -> int:
        return self.assignment[(level, node)]


def assign_owners(g: TaskGraph, nprocs: int) -> OwnerMap:
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    tree, L = g.tree, g.tree.max_level
    assignment = {(L, node): node % nprocs for node in range(tree.num_nodes(L))}
    for level in range(L - 1, -1, -1):
        for parent in range(tree.num_nodes(level)):
            assignment[(level, parent)] = \
                assignment[(level + 1, tree.children(level, parent).start)]
    return OwnerMap(nprocs, assignment)


def _task_owner(owners: OwnerMap, t) -> int:
    """Owner of the node a task (or its record) builds: a merge builds the parent."""
    return owners.owner_of(t.level - (t.kind == TaskKind.MERGE), t.node)


@dataclass
class TaskRecord:
    task_id: tuple
    kind: str
    level: int
    node: int
    worker: int
    start_ns: int
    end_ns: int


@dataclass
class ExecutionStats:
    """Timings recovered from the recorded schedule."""

    workers: int
    records: list
    makespan_seconds: float
    per_kind_seconds: dict
    per_worker_busy_seconds: list
    max_concurrent: int

    @property
    def total_task_seconds(self) -> float:
        return sum(self.per_kind_seconds.values())


def _stats_from_records(records: list, workers: int) -> ExecutionStats:
    if not records:
        return ExecutionStats(workers, [], 0.0, {}, [0.0] * workers, 0)
    t0 = min(r.start_ns for r in records)
    t1 = max(r.end_ns for r in records)
    per_kind: dict = {}
    busy = [0.0] * workers
    events = []
    for r in records:
        dt = (r.end_ns - r.start_ns) / 1e9
        per_kind[r.kind] = per_kind.get(r.kind, 0.0) + dt
        busy[r.worker] += dt
        events.append((r.start_ns, 1))
        events.append((r.end_ns, -1))
    events.sort()
    live = peak = 0
    for _, step in events:
        live += step
        peak = max(peak, live)
    return ExecutionStats(workers, records, (t1 - t0) / 1e9, per_kind, busy, peak)


# Each factorization kind's body; its result is stored under the task id.
_FACTOR_BODIES = {
    TaskKind.DIAG_PRODUCT: run_diag_product,
    TaskKind.PARTIAL_FACTOR: run_partial_factor,
    TaskKind.MERGE: run_merge,
    TaskKind.ROOT_FACTOR: run_root_tile,
}


@single_blas_thread
def run_graph(g: TaskGraph, bodies: dict, ctx, workers: int | None,
              shuffle_seed: int | None = None) -> tuple[dict, ExecutionStats]:
    """Run a task graph on the calling thread plus ``workers - 1`` threads.

    ``bodies`` maps each task kind to ``body(ctx, results, task)``, whose
    return value is stored in ``results`` under ``task.id`` until the last
    of its dependents finishes.  A body reads only its dependencies'
    results and may write side entries under keys that are no task's id;
    those and the results no task depends on are returned.  Tasks start
    when and only when their dependencies completed, so when every task
    writes its own slot the results are bitwise identical for any worker
    count.  ``workers=None`` means the cores this process may use; with
    one worker no thread is started.  BLAS runs with one thread inside
    every task (the pools are set before the workers start), so the
    workers are the only parallelism.  ``shuffle_seed`` replaces each
    ready task's priority with a random rank drawn when it becomes ready
    (scheduling stress for tests), without affecting results.

    When a body raises, no further task starts, the running tasks finish,
    the workers are joined and the first exception is re-raised as is.
    A graph that cannot finish raises :class:`ValueError` naming the
    unknown dependency, or, after the workers are joined, the tasks that
    never became ready (a dependency cycle).
    """
    workers = worker_count(workers)
    dependents = g.dependents()
    remaining = {tid: len(t.deps) for tid, t in g.tasks.items()}
    readers = {tid: len(dependents[tid]) for tid in g.tasks}
    results: dict = {}
    records: list = []
    ready: list = []
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    cond = threading.Condition(threading.Lock())
    failure = None
    running = 0

    def push_ready(tid):
        rank = g.tasks[tid].priority() if rng is None else rng.random()
        heapq.heappush(ready, (rank, tid))

    for tid, count in remaining.items():
        if count == 0:
            push_ready(tid)

    def worker_loop(worker_id: int):
        nonlocal failure, running
        while True:
            with cond:
                # Nothing ready and nothing running: done, or a cycle.
                while not ready and running and failure is None:
                    cond.wait()
                if failure is not None or not ready:
                    cond.notify_all()
                    return
                tid = heapq.heappop(ready)[1]
                running += 1
            task = g.tasks[tid]
            start = time.perf_counter_ns()
            try:
                out = bodies[task.kind](ctx, results, task)
            except Exception as exc:
                with cond:
                    if failure is None:
                        failure = exc
                    cond.notify_all()
                return
            end = time.perf_counter_ns()
            dropped = []  # freed after the lock is released
            with cond:
                running -= 1
                results[tid] = out
                records.append(TaskRecord(tid, task.kind, task.level, task.node,
                                          worker_id, start, end))
                for dep in task.deps:
                    readers[dep] -= 1
                    if not readers[dep]:
                        dropped.append(results.pop(dep, None))
                for nxt in dependents[tid]:
                    remaining[nxt] -= 1
                    if remaining[nxt] == 0:
                        push_ready(nxt)
                cond.notify_all()
            del out, dropped  # a worker waiting for its next task holds no result

    threads = [threading.Thread(target=worker_loop, args=(w,), daemon=True)
               for w in range(1, workers)]
    for t in threads:
        t.start()
    worker_loop(0)
    for t in threads:
        t.join()
    if failure is not None:
        raise failure
    if len(records) < len(g.tasks):
        done = {r.task_id for r in records}
        raise ValueError("task graph cannot finish, a dependency cycle: tasks "
                         f"{[tid for tid in g.tasks if tid not in done]} never became ready")
    return results, _stats_from_records(records, workers)


@single_blas_thread
def execute(g: TaskGraph, h: HssMatrix, workers: int | None,
            shuffle_seed: int | None = None) -> tuple[UlvFactors, ExecutionStats]:
    """Factor ``h`` by running its task graph ``g`` through :func:`run_graph`.

    Every task writes a distinct result slot, so the assembled factors
    are bitwise identical for any worker count and scheduling order.
    ``workers``, ``shuffle_seed`` and failures behave as in
    :func:`run_graph`: a failing task raises its own error, such as a
    :class:`~hssulv.linalg.NotPositiveDefiniteError` naming the level and
    node.
    """
    run = FactorRun(h)
    results, stats = run_graph(g, _FACTOR_BODIES, run, workers, shuffle_seed)
    return assemble_factors(run, results), stats


@dataclass
class CommTrace:
    """Simulated inter-owner transfers, one event per cross-owner edge."""

    nprocs: int
    events: list  # (task_id, block_label, src, dst, entries)

    @property
    def total_entries(self) -> int:
        return sum(e[4] for e in self.events)

    def totals_by_pair(self) -> dict:
        out: dict = {}
        for _, _, src, dst, entries in self.events:
            ev, en = out.get((src, dst), (0, 0))
            out[(src, dst)] = (ev + 1, en + entries)
        return out


def simulate_comm(g: TaskGraph, owners: OwnerMap, h: HssMatrix) -> CommTrace:
    """Record one transfer per dependency edge crossing an owner boundary.

    A task runs on the owner of the node it builds, so the only edges that
    cross owners carry a child's skeleton remainder to its parent's merge;
    the payload, in matrix entries, is that remainder, or at the root the
    part of it that the merged tile holds.
    """
    offsets = tuple(accumulate(root_dims(h), initial=0))

    def overlap(window: range, child: int) -> int:
        return max(0, min(window.stop, offsets[child + 1]) - max(window.start, offsets[child]))

    events = []
    for task in g.tasks.values():
        dst = _task_owner(owners, task)
        for dep_id in sorted(task.deps):
            dep = g.tasks[dep_id]
            src = _task_owner(owners, dep)
            if src != dst:
                if task.id[0] == "asm":
                    _, i, j = task.id
                    entries = overlap(tile_range(offsets[-1], i), dep.node) * \
                        overlap(tile_range(offsets[-1], j), dep.node)
                else:
                    entries = h.skeleton_dim(dep.level, dep.node) ** 2
                events.append((task.id, f"ss_remainder[{dep.level},{dep.node}]",
                               src, dst, entries))
    return CommTrace(owners.nprocs, events)


def export_schedule_jsonl(stats: ExecutionStats, owners: OwnerMap, path):
    """One JSON record per executed task, with the owner of the node it builds."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in sorted(stats.records, key=lambda r: r.start_ns):
            fh.write(json.dumps({
                "id": r.task_id, "kind": r.kind, "level": r.level, "node": r.node,
                "owner": _task_owner(owners, r),
                "start_ns": r.start_ns, "end_ns": r.end_ns,
                "worker": r.worker,
            }) + "\n")


def export_comm_csv(trace: CommTrace, path):
    """Aggregated transfers per (src, dst) rank pair."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("src,dst,entries,events\n")
        for (src, dst), (events, entries) in sorted(trace.totals_by_pair().items()):
            fh.write(f"{src},{dst},{entries},{events}\n")

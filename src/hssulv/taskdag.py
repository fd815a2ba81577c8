"""The one task-graph runtime, the ULV factorization's graph on it, and a
simulated multi-process distribution with communication accounting.

:func:`run_graph` runs any task graph from three things: the tasks'
dependencies, a body per task kind, and the workers.  A task's id is the
key its result is stored under, and the result lives until the last task
that depends on it finishes; tasks start when their dependencies have
finished, and among ready tasks the one listed first in the graph goes
first, so each graph's builder sets its schedule.  A failing task raises
its own error.  Execution is shared memory: the calling thread is worker
0 and ``workers - 1`` threads join it, so one worker runs the graph
inline.  Construction
(:func:`hssulv.construct.build_hss`, :func:`hssulv.construct.build_blr2`)
and factorization (:func:`execute`) are both graphs on this one loop,
with one schedule record and one determinism guarantee.

The factorization graph is built from the tree of either format: per
level there is one diagonal-product and one partial-factor task per node
and one merge per parent below the root; the root is assembled by one
merge task per lower tile, and the tile tasks of its Cholesky close the
graph.  A root tile is a run of whole level-1 nodes.  The only edges
between nodes are produced by the merge step, so a merge can fire as
soon as the children it reads finish (two in HSS), independent of the
rest of its level, a diagonal root tile as soon as its own nodes finish
(a few of the blocks in BLR2), and an off-diagonal one at once.
:func:`hssulv.factor.ulv_factor_hss` is :func:`execute` on this graph.

The simulated "process" distribution is pure accounting, kept out of the
runtime: block rows are owned round-robin at the leaf level, every
merged parent inherits its first child's owner, and a task runs on the
owner of the node it builds (the merges ``("mg", l, p)`` build node
``(l - 1, p)``, the root's tile merges ``("asm", i, j)`` the root).  A
transfer event is recorded for every dependency edge whose endpoints
resolve to different owners: a child's skeleton remainder, whole, read
by its parent's merge or, at the root, by its own tile's diagonal merge.
The schedule export computes the owners when writing.
"""

from __future__ import annotations

import heapq
import json
import random
import threading
import time
from dataclasses import dataclass, field

from ._threads import single_blas_thread, worker_count
from .construct import HssMatrix, Tree
from .factor import (FactorRun, UlvFactors, assemble_factors, root_dims,
                     root_tiles, run_diag_product, run_merge,
                     run_partial_factor, run_root_tile)

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


@dataclass(frozen=True)
class Task:
    """One step of a task graph; ``deps`` are ids that must finish first.

    ``id`` is also the key the task's result is stored under, such as
    ``("pf", level, node)``.  The task's place in its graph's listing
    decides when it runs among ready tasks (:class:`TaskGraph`).
    """

    id: tuple
    kind: str
    level: int
    node: int
    deps: frozenset


@dataclass
class TaskGraph:
    """Tasks in run order: among ready tasks, the one listed first in
    ``tasks`` runs first, so a graph's builder sets its schedule by the
    order in which it adds the tasks."""

    tree: Tree | None  # the node table the graph was built from, if any
    tasks: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.tasks)

    def add(self, tid, kind: str, level: int, node: int, deps=()):
        self.tasks[tid] = Task(tid, kind, level, node, frozenset(deps))

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
    tiled Cholesky.  With ``t`` tiles per side, each a run of whole
    level-1 nodes (:func:`hssulv.factor.root_tiles`), the root has a merge
    ``("asm", i, j)`` per lower tile: a diagonal tile's waits for the
    partial factors of its own nodes, so each skeleton remainder has one
    reader, and an off-diagonal tile's, which copies couplings only, for
    none.  Then a ``("potrf", k)`` per diagonal tile, a ``("trsm", i, k)``
    per tile below it, and a ``("syrk", i, k)`` or ``("gemm", i, j, k)``
    per lower tile ``(i, i)`` or ``(i, j)`` and earlier panel ``k``:
    ``T(t) = t + t*(t-1) + t*(t-1)*(t-2)/6`` tasks, all of kind
    ``RootFactor`` at level 0.  The first step on a tile waits for the
    tile's merge, and its updates are chained in panel order, so its bits
    do not depend on the schedule.  For a binary tree of depth ``L``
    whose two level-1 ranks add up to at most ``ROOT_TILE``, so that the
    root is one tile, that is
    ``2*(2**(L+1) - 2) + (2**L - 1) + 1`` tasks; for BLR2 with ``nb``
    blocks ``2*nb + t*(t+1)/2 + T(t)``.
    """
    L, tree = h.max_level, h.tree
    g = TaskGraph(tree)
    tiles = root_tiles(root_dims(h))
    t = len(tiles) - 1
    # Listed in run order, the root first, so that on ties the path toward
    # the root drains first.  The root's tile merges go row by row.
    for i in range(t):
        for j in range(i + 1):
            g.add(("asm", i, j), TaskKind.MERGE, 1, 0,
                  [("pf", 1, c) for c in range(tiles[i], tiles[i + 1])] if i == j else ())

    def last(i, j, k):  # the task that wrote tile (i, j) last before panel k
        if not k:
            return ("asm", i, j)
        return ("syrk", i, k - 1) if i == j else ("gemm", i, j, k - 1)

    # Then the root's tiles by the column c they write, then by panel k: the
    # updates of the next column and its factor run before the rest of a
    # panel's updates, as a lookahead would.
    tile = TaskKind.ROOT_FACTOR
    for c in range(t):
        for k in range(c):
            g.add(("syrk", c, k), tile, 0, 0, [("trsm", c, k), last(c, c, k)])
            for i in range(c + 1, t):
                g.add(("gemm", i, c, k), tile, 0, 0,
                      [("trsm", i, k), ("trsm", c, k), last(i, c, k)])
        g.add(("potrf", c), tile, 0, 0, [last(c, c, c)])
        for i in range(c + 1, t):
            g.add(("trsm", i, c), tile, 0, 0, [("potrf", c), last(i, c, c)])
    # Then levels 1..L node by node, depth first: a node's partial factor
    # right after the diagonal product it consumes, and the merge that
    # builds the node from its children after both.
    for level in range(1, L + 1):
        for node in range(tree.num_nodes(level)):
            dp, pf = ("dp", level, node), ("pf", level, node)
            g.add(dp, TaskKind.DIAG_PRODUCT, level, node,
                  () if level == L else [("mg", level + 1, node)])
            g.add(pf, TaskKind.PARTIAL_FACTOR, level, node, [dp])
            if level < L:
                g.add(("mg", level + 1, node), TaskKind.MERGE, level + 1, node,
                      [("pf", level + 1, c) for c in tree.children(level, node)])
    return g


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
    workers are the only parallelism.  Among ready tasks the one listed
    first in ``g.tasks`` starts first; ``shuffle_seed`` replaces each
    ready task's place in the listing with a random rank drawn when it
    becomes ready (scheduling stress for tests), without affecting
    results.

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
    position = {tid: i for i, tid in enumerate(g.tasks)}
    cond = threading.Condition(threading.Lock())
    failure = None
    running = 0

    def push_ready(tid):
        rank = position[tid] if rng is None else rng.random()
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
    cross owners carry a child's skeleton remainder to its parent's merge
    (at the root, its own tile's diagonal merge); the payload, in matrix
    entries, is the whole remainder, shipped once.
    """
    events = []
    for task in g.tasks.values():
        dst = _task_owner(owners, task)
        for dep_id in sorted(task.deps):
            dep = g.tasks[dep_id]
            src = _task_owner(owners, dep)
            if src != dst:
                events.append((task.id, f"ss_remainder[{dep.level},{dep.node}]",
                               src, dst, h.skeleton_dim(dep.level, dep.node) ** 2))
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

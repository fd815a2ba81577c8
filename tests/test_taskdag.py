import dataclasses
import json
import sys
import threading
from collections.abc import MutableMapping

import numpy as np
import pytest

from conftest import factors_equal, root_tree
from hssulv import (KernelSpec, NotPositiveDefiniteError, Task, TaskGraph,
                    TaskKind, assign_owners, build_blr2, build_dag, build_hss,
                    execute, export_comm_csv, export_schedule_jsonl,
                    generate_grid, simulate_comm, taskdag, ulv_factor_blr2,
                    ulv_factor_hss)
from hssulv.factor import ROOT_TILE, FactorRun, root_tile_count
from hssulv.taskdag import _FACTOR_BODIES, run_graph

# smallest square-or-2:1 grid for each level count
TINY_N = {1: 4, 2: 16, 3: 16, 4: 64, 5: 64, 6: 256, 7: 256, 8: 1024}


def tiny_hss(level, cache={}):
    if level not in cache:
        n = TINY_N[level]
        nleaf = n >> level
        ps = generate_grid(n)
        cache[level] = build_hss(KernelSpec("laplace2d"), ps, nleaf,
                                 max_rank=max(nleaf // 2, 1))
    return cache[level]


def built_node(task):
    """The tree node a task builds: a merge ("mg", l, p) builds (l - 1, p)."""
    if task.kind == TaskKind.MERGE:
        return task.level - 1, task.node
    return task.level, task.node


def expected_task_count(level):
    return 2 * (2 ** (level + 1) - 2) + (2 ** level - 1) + 1


def root_task_count(t):
    """Tile tasks of a root with ``t`` tiles per side: a Cholesky per
    diagonal tile, a solve per tile below it, an update per lower tile and
    earlier panel."""
    return t + t * (t - 1) + t * (t - 1) * (t - 2) // 6


def longest_path_tasks(graph):
    # brute-force longest path (in tasks) by DP over a topological order
    order, seen = [], set()
    remaining = {tid: len(t.deps) for tid, t in graph.tasks.items()}
    frontier = [tid for tid, c in remaining.items() if c == 0]
    dependents = graph.dependents()
    while frontier:
        tid = frontier.pop()
        order.append(tid)
        seen.add(tid)
        for nxt in dependents[tid]:
            remaining[nxt] -= 1
            if remaining[nxt] == 0:
                frontier.append(nxt)
    assert len(order) == len(graph.tasks), "graph has a cycle"
    depth = {tid: 1 for tid in order}
    for tid in order:
        for nxt in dependents[tid]:
            depth[nxt] = max(depth[nxt], depth[tid] + 1)
    return max(depth.values())


class TestBuildDag:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_task_count_formula(self, level):
        graph = build_dag(tiny_hss(level))
        assert len(graph) == expected_task_count(level)

    def test_level1_kind_counts(self):
        counts = build_dag(tiny_hss(1)).kind_counts()
        assert counts == {TaskKind.DIAG_PRODUCT: 2, TaskKind.PARTIAL_FACTOR: 2,
                          TaskKind.MERGE: 1, TaskKind.ROOT_FACTOR: 1}

    def test_level2_leaf_partial_factors_independent(self):
        graph = build_dag(tiny_hss(2))
        assert len(graph) == 16
        pf_ids = {t.id for t in graph.tasks.values()
                  if t.kind == TaskKind.PARTIAL_FACTOR and t.level == 2}
        for tid in pf_ids:
            assert not (graph.tasks[tid].deps & pf_ids)

    def test_longest_path(self):
        graph = build_dag(tiny_hss(3))
        assert longest_path_tasks(graph) == 3 * 3 + 1

    def test_dependency_shape(self):
        graph = build_dag(tiny_hss(3))
        for task in graph.tasks.values():
            kinds = {graph.tasks[d].kind for d in task.deps}
            if task.kind == TaskKind.DIAG_PRODUCT:
                assert kinds <= {TaskKind.MERGE}
            elif task.kind == TaskKind.PARTIAL_FACTOR:
                assert kinds == {TaskKind.DIAG_PRODUCT} and len(task.deps) == 1
            elif task.kind == TaskKind.MERGE:
                assert kinds == {TaskKind.PARTIAL_FACTOR} and len(task.deps) == 2
                children = {graph.tasks[d].node for d in task.deps}
                assert children == {2 * task.node, 2 * task.node + 1}
            else:
                assert kinds == {TaskKind.MERGE}

    def test_no_same_level_same_kind_edges(self):
        graph = build_dag(tiny_hss(4))
        for task in graph.tasks.values():
            for dep_id in task.deps:
                dep = graph.tasks[dep_id]
                assert not (dep.kind == task.kind and dep.level == task.level)


class TestBlr2Graph:
    @pytest.fixture(scope="class")
    def blr2(self):
        return build_blr2(KernelSpec("laplace2d"), generate_grid(1024), 128, 40)

    @pytest.fixture(scope="class")
    def tiled(self):
        # 16 blocks of rank 60: a root of order 960, three tiles per side
        m = build_blr2(KernelSpec("yukawa"), generate_grid(2048), 128, 60)
        assert root_tile_count(m) == 3
        return m

    def test_one_merge_over_all_blocks(self, blr2, tiled):
        # a root of order at most 8 * 40 = 320 is one tile, merged by one
        # task; a tiled root's merges together read every block
        graph = build_dag(blr2)
        assert root_tile_count(blr2) == 1
        assert graph.tree.max_level == 1 and len(graph) == 2 * 8 + 1 + root_task_count(1)
        merge = graph.tasks[("asm", 0, 0)]
        assert {graph.tasks[d].node for d in merge.deps} == set(range(8))
        merges = [t for t in build_dag(tiled).tasks.values() if t.kind == TaskKind.MERGE]
        assert {d for t in merges for d in t.deps} == {("pf", 1, c) for c in range(16)}

    def test_tiled_root_task_count(self, tiled):
        # one merge per lower tile of the 3 x 3 root
        graph = build_dag(tiled)
        assert root_task_count(3) == 10
        assert len(graph) == 2 * 16 + 6 + 10
        root = [t for t in graph.tasks.values() if t.kind == TaskKind.ROOT_FACTOR]
        assert len(root) == 10
        assert all((t.level, t.node) == (0, 0) for t in root)
        assert {t.id[0] for t in root} == {"potrf", "trsm", "syrk", "gemm"}
        merges = [t for t in graph.tasks.values() if t.kind == TaskKind.MERGE]
        assert sorted(t.id for t in merges) == [("asm", i, j) for i in range(3)
                                                for j in range(i + 1)]
        assert all((t.level, t.node) == (1, 0) for t in merges)

    def test_tile_merges_wait_for_the_blocks_they_cover(self, tiled):
        # rank 60 blocks: block 6 spans rows 360-420 across the first tile
        # boundary and block 13 rows 780-840 across the second
        graph = build_dag(tiled)
        assert [tiled.skeleton_dim(1, c) for c in range(16)] == [60] * 16
        deps = {t.id[1:]: sorted(d[2] for d in t.deps)
                for t in graph.tasks.values() if t.kind == TaskKind.MERGE}
        assert deps == {(0, 0): list(range(7)), (1, 0): [6], (1, 1): list(range(6, 14)),
                        (2, 0): [], (2, 1): [13], (2, 2): [13, 14, 15]}

    def test_tiled_root_updates_chained_in_panel_order(self):
        # every task writing a tile depends on the one before it, so the
        # tile's bits do not depend on the schedule; four tiles per side,
        # so that some tiles take two gemm updates
        graph = build_dag(root_tree(np.eye(3 * ROOT_TILE + 17)))
        writers = {}
        for t in graph.tasks.values():
            if t.kind != TaskKind.ROOT_FACTOR:
                continue
            step, *ij = t.id
            target = {"potrf": (ij[0], ij[0]), "trsm": tuple(ij),
                      "syrk": (ij[0], ij[0]), "gemm": tuple(ij[:2])}[step]
            panel = ij[-1]
            writers.setdefault(target, []).append((panel, step == "potrf" or step == "trsm", t))
        assert len(writers) == 10  # the lower tiles of a 4 x 4 root
        for target, chain in writers.items():
            chain = [t for _, _, t in sorted(chain, key=lambda w: w[:2])]
            assert chain[-1].id[0] in ("potrf", "trsm")
            assert ("asm", *target) in chain[0].deps
            if chain[0].id == ("potrf", 0):
                assert chain[0].deps == {("asm", 0, 0)}
            for prev, nxt in zip(chain, chain[1:]):
                assert prev.id in nxt.deps

    def test_tiled_root_bitwise_across_workers_and_seeds(self, tiled):
        graph = build_dag(tiled)
        ref = ulv_factor_blr2(tiled, workers=1)
        for workers, seed in [(2, None), (4, None), (2, 0), (4, 1), (3, 2)]:
            factors, _ = execute(graph, tiled, workers=workers, shuffle_seed=seed)
            assert factors_equal(ref, factors)
        assert factors_equal(ref, ulv_factor_blr2(tiled))

    def test_remainders_dropped_by_their_last_tile_merge(self, tiled):
        # blocks 6 and 13 span tile boundaries, so three tile merges read
        # each; the last of them to run drops it, under any schedule, up to
        # more workers than cores, switching threads as often as possible
        graph = build_dag(tiled)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [call_with_timeout(lambda: run_graph(
                graph, _FACTOR_BODIES, FactorRun(tiled), workers, shuffle_seed=seed))
                for workers, seed in [(4, 0), (4, 1), (3, None)]]
        finally:
            sys.setswitchinterval(interval)
        for results, _ in runs:
            assert not [key for key in results if key[0] in ("dp", "pf", "mg")]

    def test_executor_matches_inline_run(self, blr2):
        graph = build_dag(blr2)
        ref = ulv_factor_blr2(blr2)
        for seed in range(3):
            factors, _ = execute(graph, blr2, workers=3, shuffle_seed=seed)
            assert factors_equal(ref, factors)

    def test_comm_ships_off_rank_remainders_to_root_merge(self, blr2, tiled):
        graph = build_dag(blr2)
        owners = assign_owners(graph, 4)
        assert owners.owner_of(0, 0) == 0
        trace = simulate_comm(graph, owners, blr2)
        off_rank = [i for i in range(8) if i % 4]
        assert [e[0] for e in trace.events] == [("asm", 0, 0)] * len(off_rank)
        assert trace.total_entries == sum(blr2.skeleton_dim(1, i) ** 2 for i in off_rank)
        # tiled: each off-rank remainder goes to the tiles that hold it,
        # its entries in the lower tiles, which are all that is read
        graph = build_dag(tiled)
        trace = simulate_comm(graph, assign_owners(graph, 4), tiled)
        order = 16 * 60
        lower = np.tril(np.ones((3, 3), dtype=bool)).repeat(ROOT_TILE, 0).repeat(ROOT_TILE, 1)
        shipped = {}
        for tid, label, src, dst, entries in trace.events:
            assert graph.tasks[tid].kind == TaskKind.MERGE and dst == 0
            shipped[label] = shipped.get(label, 0) + entries
        assert shipped == {f"ss_remainder[1,{c}]": int(lower[:order, :order][
            60 * c:60 * (c + 1), 60 * c:60 * (c + 1)].sum()) for c in range(16) if c % 4}

    @pytest.mark.parametrize("workers", [2, 4])
    def test_root_tiles_start_before_the_level_drains(self, tiled, workers):
        # dataflow witness: the root's first tiles wait only for the
        # blocks they cover, not for the whole level.  The last block's
        # partial factor waits until a root tile has run, which it can
        # only do if no root tile waits for that block.
        root_started = threading.Event()

        def root_tile(run, results, task):
            root_started.set()
            return _FACTOR_BODIES[TaskKind.ROOT_FACTOR](run, results, task)

        def partial_factor(run, results, task):
            if task.node == tiled.tree.num_nodes(1) - 1:
                assert root_started.wait(20), "no root tile started before the last block"
            return _FACTOR_BODIES[TaskKind.PARTIAL_FACTOR](run, results, task)

        bodies = {**_FACTOR_BODIES, TaskKind.ROOT_FACTOR: root_tile,
                  TaskKind.PARTIAL_FACTOR: partial_factor}
        _, stats = run_graph(build_dag(tiled), bodies, FactorRun(tiled), workers)
        first_root = min(r.start_ns for r in stats.records if r.kind == TaskKind.ROOT_FACTOR)
        assert first_root < max(r.end_ns for r in stats.records
                                if r.kind == TaskKind.PARTIAL_FACTOR)


class TestAssignOwners:
    def test_single_proc(self):
        graph = build_dag(tiny_hss(2))
        owners = assign_owners(graph, 1)
        assert all(owners.owner_of(t.level, t.node) == 0
                   for t in graph.tasks.values())

    def test_level2_two_procs(self):
        owners = assign_owners(build_dag(tiny_hss(2)), 2)
        assert [owners.owner_of(2, i) for i in range(4)] == [0, 1, 0, 1]
        assert [owners.owner_of(1, i) for i in range(2)] == [0, 0]
        assert owners.owner_of(0, 0) == 0

    def test_level4_four_procs_balanced_leaves(self):
        owners = assign_owners(build_dag(tiny_hss(4)), 4)
        leaf_owners = [owners.owner_of(4, i) for i in range(16)]
        assert all(leaf_owners.count(r) == 4 for r in range(4))

    def test_parent_inherits_left_child(self):
        spec = KernelSpec("laplace2d")
        for h in (tiny_hss(3),
                  build_blr2(spec, generate_grid(2500), 256, 40),  # 10 blocks, the last short
                  build_hss(spec, generate_grid(1250), 160, 40)):  # odd halves
            graph = build_dag(h)
            owners, tree = assign_owners(graph, 3), graph.tree
            for level in range(tree.max_level - 1, -1, -1):
                for node in range(tree.num_nodes(level)):
                    assert owners.owner_of(level, node) == \
                        owners.owner_of(level + 1, tree.children(level, node).start)


class TestExecute:
    def test_single_worker_matches_sequential_bitwise(self, cache):
        h = cache.hss("laplace2d", 1024, 256, 64)
        graph = build_dag(h)
        ref = ulv_factor_hss(h)
        factors, stats = execute(graph, h, workers=1)
        assert factors_equal(ref, factors)
        assert len(stats.records) == len(graph)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_worker_counts_bitwise_identical(self, cache, workers):
        h = cache.hss("laplace2d", 1024, 256, 64)
        graph = build_dag(h)
        ref = ulv_factor_hss(h)
        factors, _ = execute(graph, h, workers=workers)
        assert factors_equal(ref, factors)

    def test_merge_fires_before_level_drains(self, cache):
        # asynchrony witness: some merge completes before the last
        # same-level partial factor starts
        h = cache.hss("laplace2d", 2048, 256, 64)
        graph = build_dag(h)
        _, stats = execute(graph, h, workers=4)
        witnessed = False
        for level in range(h.max_level, 0, -1):
            merges = [r for r in stats.records
                      if r.kind == TaskKind.MERGE and r.level == level]
            pfs = [r for r in stats.records
                   if r.kind == TaskKind.PARTIAL_FACTOR and r.level == level]
            if merges and pfs:
                witnessed |= min(m.end_ns for m in merges) < \
                    max(p.start_ns for p in pfs)
        assert witnessed

    def test_randomized_scheduling_completes_and_agrees(self, cache):
        h = cache.hss("laplace2d", 1024, 256, 64)
        graph = build_dag(h)
        ref = ulv_factor_hss(h)
        for seed in range(5):
            factors, stats = execute(graph, h, workers=3, shuffle_seed=seed)
            assert len(stats.records) == len(graph)
            assert factors_equal(ref, factors)

    def test_failure_cancels_dependents(self):
        h = tiny_hss(3)
        bad_diag = list(h.leaf_diag)
        bad_diag[5] = -np.asarray(bad_diag[5])
        broken = dataclasses.replace(h, leaf_diag=tuple(bad_diag))
        with pytest.raises(NotPositiveDefiniteError, match="level 3 node 5"):
            execute(build_dag(broken), broken, workers=2)

    def test_non_symmetric_block_named(self, monkeypatch):
        # a packed leaf diagonal cannot hold a skew, so leaf 2's rotated
        # diagonal gets it
        h = tiny_hss(3)
        product = _FACTOR_BODIES[TaskKind.DIAG_PRODUCT]

        def skewed_product(run, results, task):
            rotated = product(run, results, task)
            if (task.level, task.node) == (3, 2):
                rotated[0, -1] += 1.0
            return rotated

        monkeypatch.setitem(_FACTOR_BODIES, TaskKind.DIAG_PRODUCT, skewed_product)
        with pytest.raises(ValueError, match="not symmetric .* level 3 node 2"):
            execute(build_dag(h), h, workers=2)

    def test_stats_accounting(self, cache):
        h = cache.hss("laplace2d", 1024, 256, 64)
        graph = build_dag(h)
        _, stats = execute(graph, h, workers=2)
        assert stats.max_concurrent <= 2
        assert sum(stats.per_kind_seconds.values()) <= \
            2 * stats.makespan_seconds + 1e-9
        assert sum(stats.per_worker_busy_seconds) == \
            pytest.approx(stats.total_task_seconds, rel=1e-9)


def layered_graph(width, depth):
    """Tasks ("t", layer, i), each depending on two tasks of the layer above."""
    tasks = {}
    for layer in range(depth):
        for i in range(width):
            deps = frozenset() if layer == 0 else frozenset(
                {("t", layer - 1, i), ("t", layer - 1, (i + 1) % width)})
            tid = ("t", layer, i)
            tasks[tid] = Task(tid, TaskKind.DIAG_PRODUCT, depth - layer, i, deps)
    return TaskGraph(None, tasks)


def transitive_dependents(graph, tid):
    dependents, out, stack = graph.dependents(), set(), [tid]
    while stack:
        for nxt in dependents[stack.pop()]:
            if nxt not in out:
                out.add(nxt)
                stack.append(nxt)
    return out


def call_with_timeout(fn, timeout=30):
    """Call ``fn`` on a side thread, so that a hang fails the test, not the suite."""
    outcome = []

    def target():
        try:
            outcome.append(fn())
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "run_graph did not return"
    return outcome[0]


class TestRunGraph:
    def test_results_stored_under_task_ids(self):
        # every body reads the results it depends on, and a result is gone
        # once its last dependent has finished: only the last layer's stay;
        # up to more workers than cores, switching threads as often as possible
        graph = layered_graph(8, 6)

        def body(ctx, results, task):
            assert all(results[dep] == dep[2] for dep in task.deps)
            return task.node

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [call_with_timeout(lambda: run_graph(
                graph, {TaskKind.DIAG_PRODUCT: body}, None, workers,
                shuffle_seed=0)) for workers in (2, 4)]
        finally:
            sys.setswitchinterval(interval)
        for results, stats in runs:
            assert results == {("t", 5, i): i for i in range(8)}
            assert sorted(r.task_id for r in stats.records) == sorted(graph.tasks)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_result_with_two_readers_present_for_both(self, workers):
        # a -> b, c -> d: a's result outlives whichever of b and c ends first
        deps = {("a",): [], ("b",): [("a",)], ("c",): [("a",)], ("d",): [("b",), ("c",)]}
        graph = TaskGraph(None, {tid: Task(tid, TaskKind.DIAG_PRODUCT, 1, i, frozenset(d))
                                 for i, (tid, d) in enumerate(deps.items())})

        def body(ctx, results, task):
            return task.id[0] + "".join(results[dep] for dep in sorted(task.deps))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [call_with_timeout(lambda: run_graph(
                graph, {TaskKind.DIAG_PRODUCT: body}, None, workers, shuffle_seed=seed))
                for seed in range(20)]
        finally:
            sys.setswitchinterval(interval)
        for results, _ in runs:
            assert results == {("d",): "dbaca"}

    def test_shuffled_orders_leave_priority_and_keep_dependencies(self):
        # at one worker the records are in run order
        graph = build_dag(tiny_hss(3))
        bodies = dict.fromkeys(graph.kind_counts(), lambda c, r, t: None)

        def run_order(seed):
            stats = run_graph(graph, bodies, None, 1, shuffle_seed=seed)[1]
            return [r.task_id for r in stats.records]

        by_priority = run_order(None)
        shuffled = [run_order(seed) for seed in range(5)]
        assert any(order != by_priority for order in shuffled)
        for order in [by_priority, *shuffled]:
            position = {tid: i for i, tid in enumerate(order)}
            assert sorted(order) == sorted(graph.tasks)
            assert all(position[dep] < position[tid]
                       for tid in order for dep in graph.tasks[tid].deps)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_failure_raises_body_error_and_stops(self, workers, seed):
        graph = layered_graph(4, 4)
        failing = ("t", 1, 2)
        error = RuntimeError("body failed")
        ran = []

        def body(ctx, results, task):
            ran.append(task.id)
            if task.id == failing:
                raise error

        before = set(threading.enumerate())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(RuntimeError) as err:
                run_graph(graph, {TaskKind.DIAG_PRODUCT: body}, None, workers,
                          shuffle_seed=seed)
        finally:
            sys.setswitchinterval(interval)
        assert err.value is error
        assert not transitive_dependents(graph, failing) & set(ran)
        assert set(threading.enumerate()) <= before
        if workers == 1:
            assert ran[-1] == failing


class _ReadLog(MutableMapping):
    """The results one task's body sees, logging its reads of task ids."""

    def __init__(self, results, task, ids, reads):
        self.results, self.task, self.ids, self.reads = results, task, ids, reads

    def __getitem__(self, key):
        if key in self.ids:
            self.reads.append((self.task, key))
        return self.results[key]

    def __setitem__(self, key, value):
        self.results[key] = value

    def __delitem__(self, key):
        del self.results[key]

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)


@pytest.mark.parametrize("build", [build_hss, build_blr2])
def test_every_task_reads_only_its_dependencies(build, monkeypatch):
    # the runtime drops a result after its last dependent, so a body that
    # reads a result it does not depend on may find it gone; the build
    # (run_graph imported at call time) and execute (run_graph by its
    # global name) both run through the logging wrapper
    reads, run = [], taskdag.run_graph

    def logging_run_graph(g, bodies, ctx, workers, shuffle_seed=None):
        def logged(body):
            return lambda ctx, results, task: body(
                ctx, _ReadLog(results, task, g.tasks, reads), task)
        return run(g, {kind: logged(body) for kind, body in bodies.items()}, ctx,
                   workers, shuffle_seed)

    monkeypatch.setattr(taskdag, "run_graph", logging_run_graph)
    ps = generate_grid(2048)
    for workers, seed in [(1, None), (2, 0), (3, 1), (2, 2)]:
        # 16 leaves of rank 60: four HSS levels, a BLR2 root of 3 x 3 tiles
        h = build(KernelSpec("yukawa"), ps, 128, 60, workers=workers, shuffle_seed=seed)
        execute(build_dag(h), h, workers, seed)
    kinds = {task.kind for task, _ in reads}
    assert kinds >= {TaskKind.LEAF_COUPLING, TaskKind.PARTIAL_FACTOR, TaskKind.MERGE}
    assert build is build_blr2 or kinds >= {
        TaskKind.TRANSFER, TaskKind.COUPLING, TaskKind.DIAG_PRODUCT}
    assert [(task.id, key) for task, key in reads if key not in task.deps] == []


# Graphs that cannot finish, by their dependencies, and the error each names.
UNFINISHABLE = {
    "cycle": ({("a",): [], ("b",): [("a",), ("c",)], ("c",): [("b",)], ("d",): [("c",)]},
              "dependency cycle: tasks [('b',), ('c',), ('d',)] never became ready"),
    "self-loop": ({("a",): [("a",)]}, "tasks [('a',)] never became ready"),
    "dangling": ({("a",): [], ("b",): [("a",), ("ghost", 7)]},
                 "task ('b',) depends on unknown id ('ghost', 7)"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(UNFINISHABLE))
def test_unfinishable_graph_raises_named(case, workers):
    deps, message = UNFINISHABLE[case]
    graph = TaskGraph(None, {tid: Task(tid, TaskKind.DIAG_PRODUCT, 1, i, frozenset(d))
                             for i, (tid, d) in enumerate(deps.items())})
    error = call_with_timeout(lambda: run_graph(
        graph, {TaskKind.DIAG_PRODUCT: lambda c, r, t: None}, None, workers))
    assert isinstance(error, ValueError)
    assert message in str(error)


class TestSimulateComm:
    def test_single_proc_no_events(self):
        h = tiny_hss(3)
        graph = build_dag(h)
        trace = simulate_comm(graph, assign_owners(graph, 1), h)
        assert trace.events == []

    def test_level2_two_procs_exact_counts(self, cache):
        h = cache.hss("laplace2d", 1024, 256, 64)
        graph = build_dag(h)
        trace = simulate_comm(graph, assign_owners(graph, 2), h)
        # leaves 1 and 3 ship their remainders to the merges forming (1, 0)
        # and (1, 1), both on rank 0; nothing else crosses owners
        assert [(e[0], e[2], e[3]) for e in trace.events] == [
            (("mg", 2, 0), 1, 0), (("mg", 2, 1), 1, 0)]

    def test_conservation(self, cache):
        h = cache.hss("laplace2d", 2048, 256, 64)
        graph = build_dag(h)
        owners = assign_owners(graph, 4)
        trace = simulate_comm(graph, owners, h)
        crossing = sum(
            1 for t in graph.tasks.values() for d in t.deps
            if owners.owner_of(*built_node(graph.tasks[d]))
            != owners.owner_of(*built_node(t)))
        assert len(trace.events) == crossing
        assert all(label.startswith("ss_remainder") for _, label, *_ in trace.events)

    def test_payload_matches_block_dims(self, cache):
        h = cache.hss("laplace2d", 1024, 256, 64)
        graph = build_dag(h)
        trace = simulate_comm(graph, assign_owners(graph, 2), h)
        for task_id, label, src, dst, entries in trace.events:
            assert src != dst
            task = graph.tasks[task_id]
            if label.startswith("ss_remainder"):
                dep_node = int(label.split(",")[1].rstrip("]"))
                sk = h.skeleton_dim(task.level, dep_node)
                assert entries == sk * sk


class TestTraceExports:
    def test_schedule_jsonl(self, cache, tmp_path):
        h = cache.hss("laplace2d", 1024, 256, 64)
        graph = build_dag(h)
        _, stats = execute(graph, h, workers=2)
        owners = assign_owners(graph, 2)
        path = tmp_path / "schedule.jsonl"
        export_schedule_jsonl(stats, owners, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(graph)
        assert {"id", "kind", "level", "node", "owner", "start_ns", "end_ns",
                "worker"} <= set(lines[0])
        assert all(
            rec["owner"] == owners.owner_of(*built_node(graph.tasks[tuple(rec["id"])]))
            for rec in lines)
        starts = [rec["start_ns"] for rec in lines]
        assert starts == sorted(starts)

    def test_comm_csv(self, cache, tmp_path):
        h = cache.hss("laplace2d", 1024, 256, 64)
        graph = build_dag(h)
        trace = simulate_comm(graph, assign_owners(graph, 2), h)
        path = tmp_path / "comm.csv"
        export_comm_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "src,dst,entries,events"
        total_events = sum(int(line.split(",")[3]) for line in lines[1:])
        assert total_events == len(trace.events)

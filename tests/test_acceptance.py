"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Builds are shared through the session cache so the whole
suite stays inside its runtime budgets.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import factors_equal, random_spd
from hssulv import (ExperimentConfig, KernelSpec, TaskKind, assign_owners,
                    build_dag, execute, generate_grid, partial_cholesky,
                    reconstruct_check, simulate_comm, solve_error, ulv_solve)
from hssulv.bench import scaling_sweep

KERNELS = ("laplace2d", "yukawa", "matern")


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s over budget {self.seconds}s"


def test_criterion_1_solve_matches_dense_oracle(cache):
    budget = Budget(30)
    for n in (512, 1024):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)
        for kind in KERNELS:
            f = cache.factors(kind, n, 256, 256)
            dense = cache.dense(kind, n)
            ref = sla.cho_solve(sla.cho_factor(dense, lower=True), b)
            err = np.linalg.norm(ulv_solve(f, b) - ref) / np.linalg.norm(ref)
            assert err <= 1e-10, f"{kind} N={n}: {err:.3e}"
    budget.check()


def test_criterion_2_accuracy_at_desk_scale(cache):
    budget = Budget(120)
    bounds = {"laplace2d": (1e-4, 1e-8), "yukawa": (1e-6, 1e-11),
              "matern": (1e-3, 1e-9)}
    from hssulv import construct_error
    for kind, (cons_bound, solve_bound) in bounds.items():
        h = cache.hss(kind, 4096, 256, 100)
        f = cache.factors(kind, 4096, 256, 100)
        ce = construct_error(h, KernelSpec(kind), cache.grid(4096), seed=0)
        se = solve_error(f, h, seed=0)
        assert ce <= cons_bound, f"{kind} construct {ce:.3e} > {cons_bound}"
        assert se <= solve_bound, f"{kind} solve {se:.3e} > {solve_bound}"
    budget.check()


def test_criterion_3_construct_error_monotone_in_rank(cache):
    budget = Budget(180)
    from hssulv import construct_error
    ps = cache.grid(4096)
    for kind in KERNELS:
        spec = KernelSpec(kind)
        lo = construct_error(cache.hss(kind, 4096, 256, 100), spec, ps, seed=0)
        hi = construct_error(cache.hss(kind, 4096, 256, 200), spec, ps, seed=0)
        assert hi <= lo, f"{kind}: rank 200 error {hi:.3e} > rank 100 {lo:.3e}"
    budget.check()


def test_criterion_4_factorization_exact_on_compressed_operator(cache):
    budget = Budget(120)
    for n in (512, 1024, 2048):
        for rank in (50, 100):
            for kind in KERNELS:
                h = cache.hss(kind, n, 256, rank)
                f = cache.factors(kind, n, 256, rank)
                err = reconstruct_check(f, h)
                assert err <= 1e-10, f"{kind} N={n} rank={rank}: {err:.3e}"
    budget.check()


def test_criterion_5_linear_complexity_witness(cache):
    budget = Budget(300)
    base = ExperimentConfig(kernel=KernelSpec("laplace2d"), n=2048, nleaf=256,
                            max_rank=100, workers=1, seed=0, repetitions=3)
    sizes = [2048, 4096, 8192, 16384]
    rows, exponent = scaling_sweep(sizes, base)
    assert all(r["status"] == "ok" for r in rows)
    assert exponent is not None and exponent <= 1.3, f"exponent {exponent:.3f}"
    # task counts exactly linear in N / nleaf
    for row in rows:
        leaves = row["N"] // 256
        assert row["task_count"] == 2 * (2 * leaves - 2) + (leaves - 1) + 1
    budget.check()


def test_criterion_6_scheduler_determinism_and_asynchrony(cache):
    budget = Budget(120)
    h = cache.hss("laplace2d", 4096, 256, 100)
    graph = build_dag(h)
    reference = cache.factors("laplace2d", 4096, 256, 100)
    witness_stats = None
    for workers in (1, 2, 4, 8):
        factors, stats = execute(graph, h, workers)
        assert factors_equal(reference, factors), f"workers={workers} diverged"
        if workers == 4:
            witness_stats = stats
    assert h.max_level >= 3
    witnessed = False
    for level in range(h.max_level, 0, -1):
        merges = [r for r in witness_stats.records
                  if r.kind == TaskKind.MERGE and r.level == level]
        pfs = [r for r in witness_stats.records
               if r.kind == TaskKind.PARTIAL_FACTOR and r.level == level]
        if merges and pfs:
            witnessed |= min(m.end_ns for m in merges) < max(p.start_ns for p in pfs)
    assert witnessed, "no merge completed before the last same-level partial factor"
    budget.check()


def test_criterion_7_dag_structure(cache):
    budget = Budget(5)
    for level in range(1, 9):
        n = {1: 4, 2: 16, 3: 16, 4: 64, 5: 64, 6: 256, 7: 256, 8: 1024}[level]
        h = cache.hss("laplace2d", n, n >> level, max(n >> level, 1) // 2 or 1)
        graph = build_dag(h)
        assert graph.tree.max_level == level
        assert len(graph) == 2 * (2 ** (level + 1) - 2) + (2 ** level - 1) + 1
        # acyclic: Kahn peeling consumes every task
        remaining = {tid: len(t.deps) for tid, t in graph.tasks.items()}
        dependents = graph.dependents()
        frontier = [tid for tid, c in remaining.items() if c == 0]
        seen = 0
        while frontier:
            tid = frontier.pop()
            seen += 1
            for nxt in dependents[tid]:
                remaining[nxt] -= 1
                if remaining[nxt] == 0:
                    frontier.append(nxt)
        assert seen == len(graph)
        for task in graph.tasks.values():
            for dep_id in task.deps:
                dep = graph.tasks[dep_id]
                assert not (dep.kind == task.kind and dep.level == task.level)
            if task.kind == TaskKind.MERGE:
                assert {graph.tasks[d].node for d in task.deps} == \
                    {2 * task.node, 2 * task.node + 1}
    budget.check()


def test_criterion_8_communication_near_linear(cache):
    budget = Budget(60)
    totals = []
    for n in (2048, 4096, 8192):
        h = cache.hss("laplace2d", n, 256, 100)
        graph = build_dag(h)
        trace = simulate_comm(graph, assign_owners(graph, 4), h)
        totals.append(trace.total_entries)
    assert totals[1] <= 2.2 * totals[0], f"growth {totals[1] / totals[0]:.2f}"
    assert totals[2] <= 2.2 * totals[1], f"growth {totals[2] / totals[1]:.2f}"
    budget.check()


def test_criterion_9_partial_cholesky_schur_oracle():
    budget = Budget(10)
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 65))
        rd = int(rng.integers(0, n + 1))
        a = random_spd(rng, n)
        pf = partial_cholesky(a, rd)
        if rd == 0:
            brute = a
        elif rd == n:
            brute = np.zeros((0, 0))
        else:
            brute = a[rd:, rd:] - a[rd:, :rd] @ np.linalg.solve(a[:rd, :rd],
                                                                a[:rd, rd:])
        if brute.size:
            rel = np.linalg.norm(pf.ss_remainder - brute) / np.linalg.norm(brute)
            assert rel <= 1e-11, f"trial {trial}: {rel:.3e}"
        else:
            assert pf.ss_remainder.size == 0
    budget.check()

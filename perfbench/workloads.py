"""The four benchmark workloads and the closed loop that drives them.

One client drives the public API the way a user does: ``generate_grid`` ->
``build_hss``/``build_blr2`` -> ``execute``/``ulv_factor_*`` -> ``ulv_solve``,
sending the next call only after the previous one returned.  The seed
drives the right-hand sides and the error probes; the grid is fixed by N.
BLAS and OpenMP thread settings are left as the environment has them.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hssulv import construct, factor, geometry, kernels, taskdag
from tracing import SpanIndex, Tracer, install_boundaries

NLEAF = 256
MAX_RANK = 100
WORKERS = 2
# When the executor's workers and the BLAS thread pools oversubscribe the
# cores, factorization and solve times settle into a mode per process, so
# they are sampled in several fresh processes per run.
SERIES_PROCESSES = 4
# A round is FACTORS_PER_ROUND factorizations, then SOLVES_PER_ROUND
# solves with the last factors.  While the BLAS threads a factorization
# woke are still spinning, the half-dozen solves after it are about three
# times slower; 250 solves per round keep those near 2%, below the 5% tail
# that solve_s_p95 reads, and put 12 solves beyond it in every round.
FACTORS_PER_ROUND = 2
SOLVES_PER_ROUND = 250
CHECK_BATCH = 200
MIN_ROUNDS = 2  # per process
ERROR_PROBES = 256
COMM_PROCS = 4
TRACE_REFACTORS = 3
TRACE_SOLVES = 20
WARMUP_N = 512
BUILD_ACCOUNTING_TOLERANCE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str
    n: int
    fmt: str  # "hss" or "blr2"
    reuse: bool  # build once in set-up, time only factorizations and solves
    construct_bound: float
    solve_bound: float


# Acceptance criterion 2 (tests/test_acceptance.py) bounds construct and
# solve error per kernel at N = 4096.  It sets no bound at N = 8192, where
# the laplace2d error under the fixed rank cap is about 1.3e-4, above the
# N = 4096 bound of 1e-4; laplace-8192 is gated one decade above that bound
# and the construct_error metric carries the regression bound.
WORKLOADS = {w.name: w for w in (
    Workload("laplace-8192", "laplace2d", 8192, "hss", False, 1e-3, 1e-8),
    Workload("matern-4096", "matern", 4096, "hss", False, 1e-3, 1e-9),
    Workload("yukawa-4096-refactor", "yukawa", 4096, "hss", True, 1e-6, 1e-11),
    Workload("yukawa-4096-blr2", "yukawa", 4096, "blr2", False, 1e-6, 1e-11),
)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``.

    Factorization times have a floor and a long tail when the executor's
    workers and the BLAS threads oversubscribe the cores.  Of the median,
    the mean and the trimmed means, the mean of the middle half varied
    least when a run's samples were resampled, and it ignores the rare
    stalls past a second.
    """
    v = sorted(values)
    lo, hi = len(v) // 4, len(v) - len(v) // 4
    return float(np.mean(v[lo:hi]))


def factors_equal(a, b) -> bool:
    if not np.array_equal(a.root_chol, b.root_chol):
        return False
    return all(np.array_equal(x.l_rr, y.l_rr) and np.array_equal(x.l_sr, y.l_sr)
               for level in a.levels
               for x, y in zip(a.levels[level], b.levels[level]))


def compressed_bytes(op) -> int:
    """Bytes held by the diagonals, bases and couplings of an operator."""
    if isinstance(op, construct.HssMatrix):
        diags, bases = op.leaf_diag, op.bases.values()
    else:
        diags, bases = op.diag, op.bases
    return (sum(d.nbytes for d in diags) + sum(b.q.nbytes for b in bases)
            + sum(c.nbytes for c in op.coupling.values()))


def skeleton_ranks(op) -> list[int]:
    bases = op.bases.values() if isinstance(op, construct.HssMatrix) else op.bases
    return [b.skeleton_dim for b in bases]


def construct_error_probes(op, spec, ps, rng) -> float:
    """``||A Z - M Z||_F / ||A Z||_F`` over ``ERROR_PROBES`` normal probes.

    The library's ``construct_error`` uses one probe, whose value swings
    by a factor of three across seeds on laplace-8192; a block of probes
    costs one kernel pass, like one probe, and varies a few percent.
    """
    n = ps.n
    z = rng.standard_normal((n, ERROR_PROBES))
    exact = np.empty_like(z)
    pts = ps.points
    for start in range(0, n, NLEAF):
        exact[start:start + NLEAF] = kernels.kernel_matrix(
            spec, pts[start:start + NLEAF], pts) @ z
    return float(np.linalg.norm(exact - construct.matvec(op, z))
                 / np.linalg.norm(exact))


class Ledger:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def raised(self, what: str):
        traceback.print_exc()
        self.record(False, f"{what} raised")


class Client:
    """One closed-loop client running a workload with a seeded stream."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.spec = kernels.KernelSpec(w.kernel)
        self.rng = np.random.default_rng(seed)
        self.ledger = Ledger()
        self.factor_s: list[float] = []
        self.solve_s: list[float] = []
        self.round_p95: list[float] = []
        self.stats: list = []
        self.first_factors = None

    def build(self, ps):
        fn = construct.build_hss if self.w.fmt == "hss" else construct.build_blr2
        return fn(self.spec, ps, NLEAF, MAX_RANK)

    def factorize(self, op):
        """Factor ``op``; the result must match the run's first factors bitwise."""
        t0 = time.perf_counter()
        if self.w.fmt == "hss":
            f, stats = taskdag.execute(taskdag.build_dag(op), op, WORKERS)
            self.stats.append(stats)
        else:
            f = factor.ulv_factor_blr2(op)
        self.factor_s.append(time.perf_counter() - t0)
        if self.first_factors is None:
            self.first_factors = f
        self.ledger.record(factors_equal(f, self.first_factors),
                           "factors differ bitwise from the run's first factors")
        return f

    def solve(self, f, b):
        t0 = time.perf_counter()
        x = factor.ulv_solve(f, b)
        self.solve_s.append(time.perf_counter() - t0)
        return x

    def check_solves(self, op, b, x):
        """Relative residual ``||M x - b|| / ||b||`` of each solve, per column."""
        res = np.linalg.norm(construct.matvec(op, x.T) - b.T, axis=0) / \
            np.linalg.norm(b, axis=1)
        for r in res:
            self.ledger.record(bool(r <= self.w.solve_bound),
                               f"solve residual {r:.3e} > {self.w.solve_bound:g}")

    def solve_block(self, f, count, xs):
        """``count`` solves back to back, solutions appended to ``xs``.

        Nothing else runs between them: a residual check in between lets
        the BLAS thread pools change state, which moves the solve time of
        the next ones.  The solutions are checked later by
        :meth:`check_replayed`.
        """
        for _ in range(count):
            b = self.rng.standard_normal(self.w.n)
            try:
                xs.append(self.solve(f, b))
            except Exception:
                self.ledger.raised("ulv_solve")
                xs.append(np.full(self.w.n, np.nan))

    def check_replayed(self, op, replay, xs):
        """Check the solutions ``xs`` on right-hand sides drawn again from
        ``replay``, a copy of the generator taken before the first solve."""
        for start in range(0, len(xs), CHECK_BATCH):
            x = np.array(xs[start:start + CHECK_BATCH])
            self.check_solves(op, replay.standard_normal(x.shape), x)

    def solution(self, b=None):
        """Grid -> build -> factor -> first solve for a new matrix."""
        if b is None:
            b = self.rng.standard_normal((1, self.w.n))
        t0 = time.perf_counter()
        ps = geometry.generate_grid(self.w.n)
        t1 = time.perf_counter()
        op = self.build(ps)
        t2 = time.perf_counter()
        rss_after_build = peak_rss_mb()
        f = self.factorize(op)
        x = self.solve(f, b[0])
        t3 = time.perf_counter()
        self.check_solves(op, b, x[None, :])
        return {"ps": ps, "op": op, "f": f, "x": x, "b": b,
                "build_s": t2 - t1, "tts_s": t3 - t0,
                "rss_after_build_mb": rss_after_build}

    def check_operator(self, op, ps):
        """Construct error against the exact kernel matrix, gated per kernel."""
        err = construct_error_probes(op, self.spec, ps, self.rng)
        self.ledger.record(err <= self.w.construct_bound,
                           f"construct error {err:.3e} > {self.w.construct_bound:g}")
        return err

    def check_sequential(self, op, f):
        """HSS: ``execute`` factors must equal ``ulv_factor_hss`` bitwise."""
        if self.w.fmt == "hss":
            self.ledger.record(factors_equal(factor.ulv_factor_hss(op), f),
                               "execute factors differ bitwise from ulv_factor_hss")


def warm_up(spec):
    """A small pipeline of the workload's kernel: loads BLAS, LAPACK, the
    special functions and the executor's code paths before timing."""
    ps = geometry.generate_grid(WARMUP_N)
    h = construct.build_hss(spec, ps, NLEAF, MAX_RANK)
    f, _ = taskdag.execute(taskdag.build_dag(h), h, WORKERS)
    factor.ulv_solve(f, np.ones(WARMUP_N))
    factor.ulv_factor_blr2(construct.build_blr2(spec, ps, NLEAF, MAX_RANK))


def set_up(client: Client, import_s: float) -> dict:
    """Warm up once; the reuse workload then builds its operator once, and
    its first solution starts at that build's grid.

    ``setup_samples`` gets this process's import and warm-up time; each
    series process adds one more (:func:`timed_series`).
    """
    t0 = time.perf_counter()
    warm_up(client.spec)
    out = {"setup_samples": [import_s + time.perf_counter() - t0], "build_setup_s": 0.0}
    if client.w.reuse:
        out["grid_start"] = time.perf_counter()
        out["ps"] = geometry.generate_grid(client.w.n)
        t1 = time.perf_counter()
        out["op"] = client.build(out["ps"])
        t2 = time.perf_counter()
        out["build_s"] = t2 - t1
        out["rss_after_build_mb"] = peak_rss_mb()
        out["build_setup_s"] = t2 - out["grid_start"]
    return out


def timed_series(name: str, op, reference, seconds: float, seed: int,
                 import_s: float) -> dict:
    """The factorizations and solves of one fresh process.

    After a warm-up, rounds of ``FACTORS_PER_ROUND`` factorizations and
    ``SOLVES_PER_ROUND`` solves with the last factors run for about
    ``seconds`` (a round starts if at least half of it fits), and until
    the process has run ``MIN_ROUNDS``.  Host load drifts
    within seconds, so alternating spreads both kinds of samples over the
    whole run.
    Every factorization must equal ``reference`` bitwise.  The import
    time ``import_s`` plus the warm-up is returned as a set-up sample.
    """
    client = Client(WORKLOADS[name], seed)
    client.first_factors = reference
    t0 = time.perf_counter()
    warm_up(client.spec)
    setup_s = import_s + time.perf_counter() - t0
    replay = copy.deepcopy(client.rng)
    xs = []
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    while (time.perf_counter() + round_s / 2 < deadline
           or len(client.round_p95) < MIN_ROUNDS):
        t0 = time.perf_counter()
        try:
            for _ in range(FACTORS_PER_ROUND):
                f = client.factorize(op)
        except Exception:
            client.ledger.raised("factorization")
            f = reference
        client.solve_block(f, SOLVES_PER_ROUND, xs)
        client.round_p95.append(float(np.percentile(client.solve_s[-SOLVES_PER_ROUND:], 95)))
        round_s = time.perf_counter() - t0
    client.check_replayed(op, replay, xs)
    return {"factor_s": client.factor_s, "solve_s": client.solve_s,
            "round_p95": client.round_p95, "setup_s": setup_s,
            "attempted": client.ledger.attempted, "failed": client.ledger.failed}


def series_main(path: str, seed: str, import_s: float):
    """Entry point of a series process: arguments from the pickle at
    ``path``, written by :func:`run_series`; the result goes to stdout."""
    with open(path, "rb") as fh:
        args = pickle.load(fh)
    print(json.dumps(timed_series(*args, int(seed), import_s)))


def run_series(client: Client, op, seconds: float, workdir: Path):
    """Run :func:`timed_series` in ``SERIES_PROCESSES`` fresh processes,
    one after the other, and pool their samples into ``client``; returns
    their set-up samples."""
    path = workdir / f"series-{os.getpid()}.pkl"
    here = Path(__file__).resolve().parent
    setup_samples = []
    code = ("import time; t0 = time.perf_counter(); import sys; "
            "sys.path[:0] = sys.argv[3:]; import workloads; "
            "workloads.series_main(*sys.argv[1:3], time.perf_counter() - t0)")
    try:
        with open(path, "wb") as fh:
            pickle.dump((client.w.name, op, client.first_factors, seconds),
                        fh, protocol=pickle.HIGHEST_PROTOCOL)
        for seed in client.rng.integers(2**62, size=SERIES_PROCESSES):
            out = subprocess.run([sys.executable, "-c", code, str(path), str(seed),
                                  str(here.parent / "src"), str(here)],
                                 stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(out.stdout.splitlines()[-1])
            client.factor_s += res["factor_s"]
            client.solve_s += res["solve_s"]
            client.round_p95 += res["round_p95"]
            setup_samples.append(res["setup_s"])
            client.ledger.attempted += res["attempted"]
            client.ledger.failed += res["failed"]
    finally:
        path.unlink(missing_ok=True)
    return setup_samples


def run_untraced(client: Client, setup: dict, seconds: float, workdir: Path):
    """The timed phase: a first solution, then the time left split over
    ``SERIES_PROCESSES`` fresh processes (:func:`run_series`).

    Peak RSS is read at the end of the build.  The factorization after it
    touches a 38 MB BLAS buffer in some processes and not in others, which
    made the peak bimodal (177 or 215 MB) on yukawa-4096-blr2.
    """
    w = client.w
    start = time.perf_counter()
    if w.reuse:
        op, ps = setup["op"], setup["ps"]
        b = client.rng.standard_normal((1, w.n))
        f = client.factorize(op)
        x = client.solve(f, b[0])
        tts = time.perf_counter() - setup["grid_start"]
        client.check_solves(op, b, x[None, :])
        build_s, peak = setup["build_s"], setup["rss_after_build_mb"]
    else:
        sol = client.solution()
        op, ps, f = sol["op"], sol["ps"], sol["f"]
        tts, build_s, peak = sol["tts_s"], sol["build_s"], sol["rss_after_build_mb"]
    each = max(0.0, start + seconds - time.perf_counter()) / SERIES_PROCESSES
    setup_samples = setup["setup_samples"] + run_series(client, op, each, workdir)
    err = client.check_operator(op, ps)
    client.check_sequential(op, client.first_factors)
    return {
        "time_to_solution_s": (tts, "s"),
        "build_s": (build_s, "s"),
        "factor_s": (interquartile_mean(client.factor_s), "s"),
        "solve_s": (statistics.median(client.solve_s), "s"),
        "solve_s_p95": (statistics.median(client.round_p95), "s"),
        "peak_rss_mb": (peak, "MB"),
        "compressed_mb": (compressed_bytes(op) / 2**20, "MB"),
        "construct_error": (err, "1"),
        "setup_s": (statistics.median(setup_samples) + setup["build_setup_s"], "s"),
    }, {"factorizations": len(client.factor_s), "solves": len(client.solve_s)}


TASK_KINDS = ("DiagProduct", "PartialFactor", "Merge", "RootFactor")
TASK_LEVELS = range(5)  # root (0) to the leaves at N = 4096 (4)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_traced(client: Client, spans_path) -> dict:
    """Per-layer numbers from one traced solution plus a fixed number of
    traced factorizations and solves.

    The traced solution runs between two untraced solutions of the same
    right-hand side, which give the overhead and the bitwise reference.
    A first, discarded solution pays the first-touch cost of the build's
    large arrays, which would otherwise make the untraced side slower.
    """
    w = client.w
    client.solution()
    before = client.solution()
    first_stat = len(client.stats)
    tracer = Tracer()
    install_boundaries(tracer, w.n, NLEAF)
    try:
        with tracer.span("solution"):
            sol = client.solution(before["b"])
        op = sol["op"]
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        for _ in range(TRACE_REFACTORS):
            f = client.factorize(op)
            b = client.rng.standard_normal((TRACE_SOLVES, w.n))
            for j in range(TRACE_SOLVES):
                client.check_solves(op, b[j:j + 1], client.solve(f, b[j])[None, :])
        cpu_s, wall_s = cpu_seconds() - cpu0, time.perf_counter() - wall0
        client.check_sequential(op, client.first_factors)
    finally:
        tracer.restore()
    stats = client.stats[first_stat:]
    after = client.solution(before["b"])
    for ref in (before, after):
        client.ledger.record(np.array_equal(sol["x"], ref["x"]),
                             "traced solution differs bitwise from the untraced one")
    client.check_operator(op, sol["ps"])
    tracer.write_jsonl(spans_path)
    untraced_build_s = (before["build_s"] + after["build_s"]) / 2
    untraced_tts_s = (before["tts_s"] + after["tts_s"]) / 2

    idx = SpanIndex(tracer.spans)
    build = idx.named(f"construct.build_{w.fmt}")[0]
    kern = idx.named("kernels.kernel_matrix", build)
    basis = idx.named("construct.build_shared_basis", build)
    leaf = [s for s in basis if s.attrs["leaf"]]
    transfer = [s for s in basis if not s.attrs["leaf"]]
    other_s = idx.self_seconds(build)
    accounted = (sum(idx.self_seconds(s) for s in kern + basis) + other_s)
    factorizations = [s for s in idx.spans
                      if s.name in ("taskdag.execute", "factor.ulv_factor_blr2")]

    def per_factorization(name):
        return _median([sum(s.seconds for s in idx.named(name, fz))
                        for fz in factorizations])

    m = {
        "geometry.generate_grid_s": (sum(s.seconds for s in idx.named(
            "geometry.generate_grid")), "s"),
        "kernels.kernel_matrix_s": (sum(s.seconds for s in kern), "s"),
        "kernels.calls": (len(kern), "count"),
        "kernels.entries": (sum(s.attrs["entries"] for s in kern), "count"),
        "construct.leaf_basis_s": (sum(s.seconds for s in leaf), "s"),
        "construct.transfer_basis_s": (sum(s.seconds for s in transfer), "s"),
        "construct.basis_calls": (len(basis), "count"),
        "construct.basis_input_mb": (sum(s.attrs["bytes"] for s in basis) / 2**20, "MB"),
        "construct.other_s": (other_s, "s"),
        "construct.rss_after_build_mb": (sol["rss_after_build_mb"], "MB"),
        "construct.rank_mean": (float(np.mean(skeleton_ranks(op))), "count"),
        "construct.nodes_at_cap": (sum(r >= MAX_RANK for r in skeleton_ranks(op)), "count"),
        "construct.matvec_s": (_median([s.seconds for s in idx.named("construct.matvec")]), "s"),
        "linalg.partial_cholesky_s": (per_factorization("linalg.partial_cholesky"), "s"),
        "linalg.cholesky_s": (per_factorization("linalg.cholesky"), "s"),
        "factor.sequential_s": (_median([s.seconds for s in idx.named(
            "factor.ulv_factor_hss" if w.fmt == "hss" else "factor.ulv_factor_blr2")]), "s"),
        "factor.ulv_solve_s": (_median([s.seconds for s in idx.named("factor.ulv_solve")]), "s"),
        "factor.solve_error": (factor.solve_error(sol["f"], op, int(client.rng.integers(2**31))), "1"),
        "process.cpu_s": (cpu_s, "s"),
        "process.cpu_per_wall": (cpu_s / wall_s, "ratio"),
        "trace.overhead_s": (sol["tts_s"] - untraced_tts_s, "s"),
        "trace.build_accounted": (accounted / untraced_build_s, "ratio"),
    }
    m.update(_taskdag_metrics(idx, stats, op, w))
    if abs(m["trace.build_accounted"][0] - 1) > BUILD_ACCOUNTING_TOLERANCE:
        print(f"warning: per-layer build times sum to {m['trace.build_accounted'][0]:.3f} "
              "of the untraced build_s", file=sys.stderr)
    return m


def _taskdag_metrics(idx, stats, op, w) -> dict:
    """Task-graph numbers from the traced ``execute`` calls; zero on BLR2,
    which has no task graph."""
    m = {"taskdag.build_dag_s": (_median([s.seconds for s in idx.named("taskdag.build_dag")]), "s")}
    if w.fmt == "hss":
        graph = taskdag.build_dag(op)
        comm = taskdag.simulate_comm(graph, taskdag.assign_owners(graph, COMM_PROCS), op)
        tasks, events, entries = len(graph), len(comm.events), comm.total_entries
    else:
        tasks = events = entries = 0
    m["taskdag.tasks"] = (tasks, "count")
    m["taskdag.makespan_s"] = (_median([st.makespan_seconds for st in stats]), "s")
    for kind in TASK_KINDS:
        m[f"taskdag.task_s.{kind}"] = (_median(
            [st.per_kind_seconds.get(kind, 0.0) for st in stats]), "s")
    for level in TASK_LEVELS:
        m[f"taskdag.task_s.L{level}"] = (_median(
            [sum((r.end_ns - r.start_ns) / 1e9 for r in st.records if r.level == level)
             for st in stats]), "s")
    m["taskdag.idle_s"] = (_median(
        [st.workers * st.makespan_seconds - st.total_task_seconds for st in stats]), "s")
    m["taskdag.busy_ratio"] = (_median(
        [st.total_task_seconds / (st.workers * st.makespan_seconds) for st in stats]), "ratio")
    m["taskdag.max_concurrent"] = (_median([st.max_concurrent for st in stats]), "count")
    m["taskdag.comm_events"] = (events, "count")
    m["taskdag.comm_entries"] = (entries, "count")
    return m

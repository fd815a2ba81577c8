import csv
import json

import pytest

from hssulv import (ExperimentConfig, KernelSpec, build_hss, construct_error,
                    generate_grid, run_single)
from hssulv._threads import _pools
from hssulv.bench import (DEFAULT_RANK_GRID, RANK_SWEEP_COLUMNS, SCALING_COLUMNS,
                          _rank_stats, fit_growth_exponent, rank_accuracy_sweep,
                          scaling_sweep, write_csv)
from hssulv.cli import main


def small_config(**overrides):
    base = dict(kernel=KernelSpec("laplace2d"), n=512, nleaf=256, max_rank=256,
                workers=1, nprocs_simulated=1, seed=0, repetitions=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunSingle:
    def test_lossless_solve_error(self):
        report = run_single(small_config())
        assert report.solve_error <= 1e-10
        assert report.construct_error <= 1e-10
        assert report.task_count == 6

    def test_errors_deterministic_for_seed(self):
        a = run_single(small_config(seed=3))
        b = run_single(small_config(seed=3))
        assert a.construct_error == b.construct_error
        assert a.solve_error == b.solve_error

    def test_report_embeds_config_and_round_trips(self):
        cfg = small_config(kernel=KernelSpec("yukawa"), seed=5)
        assert run_single(cfg).config == cfg.as_dict()

    def test_ci_absent_for_single_repetition(self):
        report = run_single(small_config())
        assert report.factor_seconds_ci95 is None

    def test_ci_present_for_repeats(self):
        report = run_single(small_config(repetitions=3))
        assert report.factor_seconds_ci95 is not None
        assert report.factor_seconds_ci95 >= 0

    def test_block_solve_timed_beside_single(self):
        report = json.loads(json.dumps(run_single(small_config(repetitions=2)).as_dict()))
        assert report["solve_block16_seconds_mean"] > 0
        assert report["solve_block16_seconds_ci95"] >= 0
        assert run_single(small_config()).solve_block16_seconds_ci95 is None

    def test_yukawa_desk_scale_accuracy(self):
        report = run_single(small_config(kernel=KernelSpec("yukawa"),
                                         n=4096, max_rank=100))
        assert report.construct_error <= 1e-7
        assert report.solve_error <= 1e-12

    def test_rank_stats_per_level(self):
        # every matern node reaches the cap at this size, and what the cap
        # leaves out of each level's rows is small but not zero
        report = run_single(small_config(kernel=KernelSpec("matern"), n=1024,
                                         max_rank=100))
        tails = [stats.pop("tail_max") for stats in report.rank_stats]
        assert report.rank_stats == [
            {"level": 1, "min": 100, "mean": 100.0, "max": 100, "at_cap": 2},
            {"level": 2, "min": 100, "mean": 100.0, "max": 100, "at_cap": 4},
        ]
        assert all(1e-13 < tail < 1e-8 for tail in tails)

    def test_tail_names_binding_level(self):
        # laplace2d at N = 8192: the level-2 nodes hold 2048 points each and
        # need more than rank 100; their tail sets the construct error
        spec, ps = KernelSpec("laplace2d"), generate_grid(8192)
        h = build_hss(spec, ps, 256, 100, workers=2)
        stats = _rank_stats(h, 100)
        binding = max(stats, key=lambda level: level["tail_max"])
        assert binding["level"] == 2
        others = [level["tail_max"] for level in stats if level is not binding]
        assert max(others) < binding["tail_max"] / 10
        error = construct_error(h, spec, ps, 0)
        assert binding["tail_max"] / 2 <= error <= 2 * binding["tail_max"]

    def test_blas_threads_one_per_pool_found(self):
        # one thread inside library calls in every OpenBLAS pool loaded,
        # None when there is none; the JSON report carries the same
        report = run_single(small_config())
        expected = {name: 1 for name, _, _ in _pools()} or None
        assert report.blas_threads == expected
        assert json.loads(json.dumps(report.as_dict()))["blas_threads"] == expected

    def test_blr2_runs_nine_blocks(self):
        # 2304 = 48**2 is 9 blocks of 256: a BLR2 tree, whatever the
        # power-of-two rule of HSS leaves once said
        report = run_single(small_config(kernel=KernelSpec("yukawa"), n=2304,
                                         max_rank=100, tree="blr2"))
        assert [level["level"] for level in report.rank_stats] == [1]
        assert report.solve_error <= 1e-11

    def test_config_validation(self):
        with pytest.raises(ValueError, match="exceeds nleaf"):
            small_config(max_rank=300)
        # N is checked by the grid's own rule; the build checks the leaves
        with pytest.raises(ValueError, match="nearest valid sizes"):
            ExperimentConfig(kernel=KernelSpec("laplace2d"), n=500, nleaf=256,
                             max_rank=100)
        with pytest.raises(ValueError, match="repetitions"):
            small_config(repetitions=0)


class TestSweeps:
    def test_single_config_single_row(self):
        rows = rank_accuracy_sweep(["laplace2d"], [(256, 256)],
                                   small_config())
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        assert rows[0]["construct_error"] <= 1e-10
        assert rows[0]["solve_error"] <= 1e-10

    def test_failed_rows_recorded_and_sweep_continues(self):
        rows = rank_accuracy_sweep(["laplace2d"], [(300, 256), (128, 256)],
                                   small_config())
        assert [r["status"] for r in rows] == ["error", "ok"]
        assert "exceeds nleaf" in rows[0]["message"]

    def test_rank_sweep_covers_kernels_and_grid(self):
        rows = rank_accuracy_sweep(["laplace2d", "yukawa"], [(64, 128), (128, 128)],
                                   small_config())
        assert len(rows) == 4
        keys = {(r["kernel"], r["max_rank"], r["nleaf"]) for r in rows}
        assert ("yukawa", 64, 128) in keys

    def test_scaling_single_n_has_no_exponent(self):
        rows, exponent = scaling_sweep([512], small_config())
        assert exponent is None
        assert len(rows) == 1 and rows[0]["status"] == "ok"

    def test_scaling_task_counts_linear(self):
        rows, _ = scaling_sweep([512, 1024, 2048],
                                small_config(max_rank=64))
        counts = [r["task_count"] for r in rows]
        # 2*(2**(L+1)-2) + 2**L - 1 + 1 with L = log2(N/256)
        assert counts == [6, 16, 36]

    def test_fit_exponent_recovers_power_law(self):
        ns = [1000, 2000, 4000, 8000]
        times = [2e-3 * n ** 1.1 for n in ns]
        assert fit_growth_exponent(ns, times) == pytest.approx(1.1, abs=1e-9)


class TestBreakdown:
    """The report's split of the last factorization's makespan."""

    def test_accounting_identity_single_worker(self):
        report = run_single(small_config())
        assert report.overhead_seconds >= 0
        busy = sum(report.per_worker_busy_seconds)
        assert report.overhead_seconds == pytest.approx(
            report.makespan_seconds - busy, abs=1e-9)

    def test_per_kind_totals_cover_all_kinds(self):
        report = run_single(small_config(n=1024, max_rank=64))
        assert set(report.per_kind_seconds) == {
            "DiagProduct", "PartialFactor", "Merge", "RootFactor"}
        # compute time concentrates in the numeric block kinds, not merges
        totals = report.per_kind_seconds
        assert max(totals, key=totals.get) != "Merge"

    def test_lossless_run_time_sits_in_dense_block_kinds(self):
        # with a full rank cap most leaf columns are redundant, so the
        # dense block work (rotation, leaf Cholesky, root Cholesky) carries
        # the runtime; merge assembly is bookkeeping.  Which dense kind
        # wins is machine noise at this scale, so only the split is pinned.
        report = run_single(small_config())
        totals = report.per_kind_seconds
        numeric = totals["DiagProduct"] + totals["PartialFactor"] \
            + totals["RootFactor"]
        assert totals["Merge"] <= 0.2 * numeric
        assert max(totals, key=totals.get) != "Merge"


class TestBuildTimings:
    """The runtime's record of the build, next to the factorization's."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_kinds_within_build_seconds(self, workers):
        report = run_single(small_config(n=1024, max_rank=64, workers=workers))
        assert set(report.build_per_kind_seconds) == {
            "LeafBasis", "LeafCoupling", "Transfer", "Coupling"}
        assert 0 < report.build_makespan_seconds <= report.build_seconds
        # task seconds overlap on several workers, never beyond workers x makespan
        assert sum(report.build_per_kind_seconds.values()) <= \
            workers * report.build_makespan_seconds + 1e-9

    def test_build_busy_ratio_at_two_workers(self):
        report = run_single(small_config(n=2048, max_rank=64, workers=2))
        assert 0 < report.build_busy_ratio <= 1
        assert report.build_busy_ratio == pytest.approx(
            sum(report.build_per_kind_seconds.values())
            / (2 * report.build_makespan_seconds))

    def test_factor_busy_ratio_at_two_workers(self):
        report = run_single(small_config(n=2048, max_rank=64, workers=2))
        assert 0 < report.factor_busy_ratio <= 1
        assert report.factor_busy_ratio == pytest.approx(
            sum(report.per_kind_seconds.values()) / (2 * report.makespan_seconds))

    def test_build_fields_in_json_report(self):
        report = json.loads(json.dumps(run_single(small_config()).as_dict()))
        assert report["build_makespan_seconds"] > 0
        assert report["build_per_kind_seconds"]["LeafBasis"] > 0
        # two packed 256-point diagonals, two square bases, one coupling of
        # the two leaves' skeleton ranks
        ranks = report["rank_stats"][0]
        assert report["compressed_bytes"] == 8 * (
            2 * 256 * 257 // 2 + 2 * 256**2 + ranks["min"] * ranks["max"])
        assert report["build_peak_bytes_estimate"] > report["compressed_bytes"]

    def test_build_per_level_seconds(self, tmp_path):
        # the same task records split by level: L3 holds the leaf tasks,
        # L1 and L2 a transfer and a coupling task per node
        out = tmp_path / "report.json"
        assert main(["--N", "2048", "--nleaf", "256", "--max-rank", "64",
                     "--workers", "2", "--reps", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        per_level = report["build_per_level_seconds"]
        assert list(per_level) == ["1", "2", "3"]
        assert all(seconds > 0 for seconds in per_level.values())
        assert per_level["3"] > per_level["1"]
        assert sum(per_level.values()) == pytest.approx(
            sum(report["build_per_kind_seconds"].values()), rel=1e-12)


class TestTrees:
    """BLR2 measured through the same report, and the factorization's
    seconds per level."""

    def test_factor_per_level_seconds(self, tmp_path):
        # level 0 holds the root tiles, level 3 the leaf tasks
        out = tmp_path / "report.json"
        assert main(["--N", "2048", "--nleaf", "256", "--max-rank", "64",
                     "--workers", "2", "--reps", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        per_level = report["factor_per_level_seconds"]
        assert list(per_level) == ["0", "1", "2", "3"]
        assert all(seconds > 0 for seconds in per_level.values())
        assert sum(per_level.values()) == pytest.approx(
            sum(report["per_kind_seconds"].values()), rel=1e-12)

    def test_blr2_from_cli(self, tmp_path):
        # 16 blocks of rank 60: a root of order 960 in three tiles per side,
        # 10 tile tasks after 2 * 16 block tasks and 6 tile merges
        out = tmp_path / "report.json"
        assert main(["--tree", "blr2", "--kernel", "yukawa", "--N", "2048",
                     "--nleaf", "128", "--max-rank", "60", "--workers", "2",
                     "--reps", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["tree"] == "blr2"
        assert report["task_count"] == 2 * 16 + 6 + 10
        assert [r["level"] for r in report["rank_stats"]] == [1]
        assert set(report["build_per_kind_seconds"]) == {"LeafBasis", "LeafCoupling"}
        assert list(report["factor_per_level_seconds"]) == ["0", "1"]
        assert report["solve_error"] <= 1e-11

    def test_blr2_scaling_sweep(self):
        rows, exponent = scaling_sweep([512, 1024], small_config(tree="blr2", max_rank=64))
        assert [r["status"] for r in rows] == ["ok", "ok"]
        # 2 and 4 blocks, each root one tile
        assert [r["task_count"] for r in rows] == [2 * 2 + 2, 2 * 4 + 2]
        assert exponent is not None

    def test_unknown_tree_refused(self, capsys):
        with pytest.raises(ValueError, match="tree"):
            small_config(tree="h2")
        with pytest.raises(SystemExit):
            main(["--tree", "h2"])


class TestCsvSchemas:
    def test_rank_sweep_golden_header(self, tmp_path):
        rows = rank_accuracy_sweep(["laplace2d"], [(128, 256)], small_config())
        path = tmp_path / "rank.csv"
        write_csv(rows, RANK_SWEEP_COLUMNS, path)
        header = path.read_text().splitlines()[0]
        assert header == ("schema_version,kernel,N,nleaf,max_rank,"
                          "construct_error,solve_error,status,message")

    def test_scaling_golden_header(self, tmp_path):
        rows, _ = scaling_sweep([512], small_config())
        path = tmp_path / "scaling.csv"
        write_csv(rows, SCALING_COLUMNS, path)
        header = path.read_text().splitlines()[0]
        assert header == ("schema_version,kernel,N,nleaf,max_rank,workers,"
                          "repetitions,build_seconds,factor_seconds_mean,"
                          "factor_seconds_ci95,solve_seconds_mean,"
                          "solve_seconds_ci95,task_count,status,message")

    def test_default_rank_grid_constant(self):
        assert DEFAULT_RANK_GRID == ((100, 256), (200, 256), (200, 512), (400, 512))


class TestCli:
    def test_single_run_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--kernel", "yukawa", "--N", "512", "--nleaf", "256",
                     "--max-rank", "256", "--reps", "1", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["solve_error"] <= 1e-10
        assert report["config"]["kernel"]["kind"] == "yukawa"

    def test_single_run_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["--N", "512", "--nleaf", "256", "--max-rank", "128",
                     "--reps", "1", "--format", "csv", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["solve_error"]) <= 1e-9

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kernel": "matern",
            "constants": {"sigma": 1.0, "mu": 0.03, "rho": 0.5},
            "N": 512, "nleaf": 256, "max_rank": 64, "reps": 1}))
        out = tmp_path / "report.json"
        code = main(["--config", str(cfg), "--max-rank", "256",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["kernel"]["kind"] == "matern"
        assert report["config"]["max_rank"] == 256

    def test_scaling_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        code = main(["--sweep", "scaling", "--N", "512,1024",
                     "--nleaf", "256", "--max-rank", "64", "--reps", "1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("schema_version,kernel,N")
        assert len(lines) == 3
        assert "fitted_exponent=" in capsys.readouterr().err

    def test_breakdown_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--N", "512", "--nleaf", "256", "--max-rank", "128",
                     "--workers", "2", "--reps", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["makespan_seconds"] > 0
        assert report["overhead_seconds"] >= 0
        assert len(report["per_worker_busy_seconds"]) == 2

    def test_invalid_config_nonzero_exit_with_json_error(self, capsys):
        code = main(["--N", "511"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["status"] == "error"
        assert err["error"] == "ValueError"

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "rank"]], ids=["single", "rank"])
    def test_size_list_needs_scaling_sweep(self, capsys, sweep):
        # a list would otherwise run its first size only
        assert main([*sweep, "--N", "512,1024"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["status"] == "error" and err["error"] == "ValueError"
        assert "--N" in err["message"]

    def test_not_positive_definite_fields(self, capsys, tmp_path):
        # epsilon = 2 makes every laplace2d entry -log(2 + d) negative; the
        # constant mode sits in the skeletons and fails at the root
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": "laplace2d",
                                   "constants": {"epsilon": 2.0},
                                   "N": 512, "nleaf": 256, "max_rank": 64,
                                   "reps": 1}))
        code = main(["--config", str(cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["status"] == "error"
        assert err["error"] == "NotPositiveDefiniteError"
        assert isinstance(err["pivot_index"], int)
        assert err["pivot_value"] <= 0
        assert "skeleton rank" in err["context"]
        assert err["context"] in err["message"]
        assert err["context"].startswith("root block")
        assert (err["level"], err["node"], err["rank"]) == (None, None, None)

    def test_not_positive_definite_node_fields(self, capsys, tmp_path):
        # matern of order sigma = 3 loses definiteness below the skeleton
        # of the first level-1 node; the row names it with numbers
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": "matern", "constants": {"sigma": 3.0},
                                   "N": 512, "nleaf": 256, "max_rank": 64,
                                   "reps": 1}))
        assert main(["--config", str(cfg)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NotPositiveDefiniteError"
        assert (err["level"], err["node"], err["rank"]) == (1, 0, 64)
        assert err["context"] == "level 1 node 0 (skeleton rank 64)"

    def test_failing_run_nonzero_exit(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": "matern",
                                   "constants": {"sigma": 600.0},
                                   "N": 512, "nleaf": 256, "max_rank": 64,
                                   "reps": 1}))
        code = main(["--config", str(cfg)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["status"] == "error"
        assert err["error"] == "KernelEvaluationError"
        assert "pivot_index" not in err

"""The demos run end to end against the public API they import."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(script: Path, cwd: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_solver_walkthrough_runs():
    run_demo(ROOT / "demos" / "solver_walkthrough.py", ROOT)


def test_accuracy_vs_rank_runs():
    # The only caller that builds HSS at rank caps 200 and 400 and leaves
    # of 512 points.  Rows: kernel, rank cap, leaf size, construct error,
    # solve error.
    rows = [line.split() for line in
            run_demo(ROOT / "demos" / "accuracy_vs_rank.py", ROOT).splitlines()[2:]]
    assert [(kind, int(rank), int(leaf)) for kind, rank, leaf, *_ in rows] == [
        (kind, rank, leaf) for kind in ("laplace2d", "yukawa", "matern")
        for rank, leaf in ((100, 256), (200, 256), (200, 512), (400, 512))]
    for start in (0, 4, 8):  # one kernel's four rows
        construct, solve = zip(*((float(c), float(s)) for *_, c, s in rows[start:start + 4]))
        # a higher cap on the same leaves compresses better
        assert construct[0] > construct[1] and construct[2] > construct[3]
        # the factorization is exact on the compressed operator
        assert max(solve) < 1e-12


def test_taskgraph_trace_runs(tmp_path):
    # The demo writes its traces next to itself, so it runs from a copy.
    script = tmp_path / "taskgraph_trace.py"
    shutil.copy(ROOT / "demos" / "taskgraph_trace.py", script)
    run_demo(script, tmp_path)
    records = [json.loads(line)
               for line in (tmp_path / "schedule_trace.jsonl").read_text().splitlines()]
    assert records and all("owner" in rec for rec in records)
    assert (tmp_path / "comm_trace.csv").read_text().startswith("src,dst,entries,events")

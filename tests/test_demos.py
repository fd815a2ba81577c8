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


def test_solver_walkthrough_runs():
    run_demo(ROOT / "demos" / "solver_walkthrough.py", ROOT)


def test_taskgraph_trace_runs(tmp_path):
    # The demo writes its traces next to itself, so it runs from a copy.
    script = tmp_path / "taskgraph_trace.py"
    shutil.copy(ROOT / "demos" / "taskgraph_trace.py", script)
    run_demo(script, tmp_path)
    records = [json.loads(line)
               for line in (tmp_path / "schedule_trace.jsonl").read_text().splitlines()]
    assert records and all("owner" in rec for rec in records)
    assert (tmp_path / "comm_trace.csv").read_text().startswith("src,dst,entries,events")

"""Keeps the benchmark harness from rotting.

    python -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_and_passes_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"smoke": "pass"}
    seen = {(line["workload"], line["mode"]) for line in lines[:-1]}
    assert len(seen) == 8
    # 20 discrete-small operations hold exactly one edge operation, which fails
    # today; no operation of the other workloads may fail
    for line in lines[:-1]:
        assert line["failed"] <= (1 if line["workload"] == "discrete-small" else 0), line


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "discrete-small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

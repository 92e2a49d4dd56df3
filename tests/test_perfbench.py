"""Smoke test of the benchmark harness: one short traced cone run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cone_trace_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cone", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # "correct" covers every output check and the trace self-check
    assert result["correct"] is True, proc.stderr
    assert result["metrics"]["simplex.max_on_simplex.calls"]["value"] == 243

"""Smoke tests of the benchmark harness: short traced scan, cone and census runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scan_trace_smoke():
    # 40 deformations, each drawing t* below 1/S_max from one exact quadric maximum
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["metrics"]["simplex.max_on_simplex.calls"]["value"] == 40
    assert result["metrics"]["sampler.deform.calls"]["value"] == 40


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


def test_census_trace_smoke():
    # the census checks cover minimality of each Polya N, the d-to-1
    # preimage counts and the exact tri:f2 and tri:f9 fixed-point censuses
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["metrics"]["positivity.polya_certify.calls"]["value"] == 28
    assert result["metrics"]["folding.preimage_count.calls"]["value"] == 144

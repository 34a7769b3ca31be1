"""Smoke test of the benchmark: one traced pass of each workload.

The traced run checks every output, and that the benchmark's own
stage-by-stage assembly of each report equals the engine's, so an engine
change that breaks either shows here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["corpus", "ladder", "assembly"])
def test_benchmark_traced_pass_is_correct(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout

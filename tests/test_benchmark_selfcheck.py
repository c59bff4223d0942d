"""Smoke test of the benchmark harness: every workload at toy sizes.

Timings are not gated here; the self-check passes when every workload runs
traced with all its output checks passing, including the CLI outputs'
pinned SHA-256 hashes.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout

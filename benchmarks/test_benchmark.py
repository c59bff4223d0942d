"""The benchmark's own tests: toy-size self-check and contract consistency.

Run from the root of a checkout:

    python3 -m pytest benchmarks
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_selfcheck_runs_every_workload_with_all_checks():
    proc = _bench("--selfcheck")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in run.WORKLOADS:
        assert name in proc.stdout
    assert "selfcheck passed" in proc.stdout


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_METRICS


def test_reference_covers_every_cli_command():
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    assert set(reference) == {label for label, _ in workloads.CLI_COMMANDS}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "law_curves", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

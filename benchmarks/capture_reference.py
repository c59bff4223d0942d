"""Capture the reference outputs that the cli_small workload checks against.

Runs each cli_small command once on the default config and writes the
SHA-256 of every CSV, and the counts and ks_exact of every summary, to
``reference/cli_small.json``. Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/capture_reference.py

Re-capture only when a change is meant to alter the CLI's outputs.
"""
import json
import shutil
from pathlib import Path

from workloads import REFERENCE_PATH, capture_cli_outputs

if __name__ == "__main__":
    scratch = Path(".bench_tmp") / "reference"
    try:
        reference = capture_cli_outputs(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(REFERENCE_PATH)

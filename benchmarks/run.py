"""Benchmark of the leodoppler package: four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload mc_large --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --selfcheck

Each run starts the workload in fresh worker processes (``worker.py``) that
import the package from the checkout's ``src``. With ``--trace 0`` it
prints every end-to-end metric with its unit and sample count; with
``--trace 1`` it prints the per-layer metrics of a traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record with provenance is
written to ``.bench_out/``. ``--selfcheck`` runs every workload at toy
sizes, traced, with every output check on.

This script uses only the standard library; the workers also need numpy.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
PACKAGE_DIR = Path("src") / "leodoppler"
OUT_DIR = Path(".bench_out")

WORKLOADS = ("mc_large", "law_curves", "cli_small", "scene_scalar")

# Set-ups per untraced run, each in its own fresh process; setup_s is their
# median, and the measuring worker's own set-up is one of them. Set-ups under
# a second are repeated 5 times, longer ones 3 times.
SETUP_RUNS = (3, 5)
CHEAP_SETUP_S = 1.0

# A run must end within 180 s; workers are killed past this budget.
RUN_BUDGET_S = 170.0

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# End-to-end metrics in the result line: the ones every workload has.
RESULT_METRICS = ("setup_s", "op_p50_s", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ)
    src = str(PACKAGE_DIR.parent.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} ran past the time budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def provenance(seed: int, worker: dict) -> dict:
    """Machine, software and input description recorded with every result."""
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind:
            suffix = "" if kind == "Unified" else kind[0].lower()
            caches[f"L{level}{suffix}"] = _read(index / "size")
    commit = None
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "sizes": worker.get("sizes", {}),
    }


def end_to_end(setups: list[float], worker: dict, attempted: int, failed: int) -> dict:
    """All eight end-to-end metrics as name -> (value or None, unit, note)."""
    times = worker["op_times"]
    n = len(times)
    rows = {
        "setup_s": (statistics.median(setups), "s", f"n={len(setups)} set-ups"),
        "op_p50_s": (statistics.median(times) if times else None, "s", f"n={n} ops"),
    }
    if n >= 10 * TAIL_SAMPLES:
        rows["op_p90_s"] = (statistics.quantiles(times, n=10)[8], "s", f"n={n} ops")
    else:
        rows["op_p90_s"] = (None, "s", f"n={n} ops, fewer than {10 * TAIL_SAMPLES}")
    for name, unit in (("users_per_s", "users/s"), ("evals_per_s", "points/s"),
                       ("quantiles_per_s", "probs/s")):
        if name in worker["throughput"]:
            value, unit, samples = worker["throughput"][name]
            rows[name] = (value, unit, f"n={samples} ops")
        else:
            rows[name] = (None, unit, "not measured by this workload")
    rows["peak_rss_mb"] = (
        worker["peak_rss_mb"], "MiB",
        "max over child processes" if worker["rss_source"] == "children" else "worker process",
    )
    rows["failed_frac"] = (failed / attempted if attempted else None, "ratio",
                           f"{failed} failed of {attempted} attempted")
    return rows


def print_rows(rows: dict) -> None:
    for name, (value, unit, note) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>12s} {unit:12s} ({note})")


def run_once(args) -> dict:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    worker = run_worker(base, deadline)
    runs = [worker]
    fewest, most = SETUP_RUNS
    while not args.trace and len(runs) < most and (
        len(runs) < fewest or max(r["setup_s"] for r in runs) < CHEAP_SETUP_S
    ):
        runs.append(run_worker(base + ["--role", "setup"], deadline))
    setups = [r["setup_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [message for r in runs for message in r["errors"]]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, worker),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wall_s": time.monotonic() - start,
        "worker": worker,
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    if args.trace:
        layer = worker["layer"]
        for name, (value, unit) in layer.items():
            note = ("absent" if name in worker["absent_metrics"]
                    else "not exercised" if name in worker["not_exercised"] else "")
            print(f"  {name:34s} {value:>12.6g} {unit:12s} {note}")
        if worker["computed_bytes_per_op"]:
            print(f"  computed from array sizes, not measured: "
                  f"{worker['computed_bytes_per_op']:.6g} B per op cross Monte Carlo boundaries")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        record["layer"] = layer
    else:
        rows = end_to_end(setups, worker, attempted, failed)
        print_rows(rows)
        metrics = {name: {"value": rows[name][0], "unit": rows[name][1]} for name in RESULT_METRICS}
        record["end_to_end"] = {name: list(row) for name, row in rows.items()}
    for message in errors:
        print(f"  failure: {message}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def selfcheck() -> int:
    """Run every workload at toy sizes, traced, with all checks on."""
    ok = True
    start = time.monotonic()
    for name in WORKLOADS:
        r = run_worker(["--workload", name, "--seed", "1", "--seconds", "0",
                        "--trace", "1", "--tiny"], start + RUN_BUDGET_S)
        good = r["failed"] == 0 and r["attempted"] > 0 and not r["absent_metrics"]
        ok = ok and good
        print(f"{name:14s} {'ok' if good else 'FAILED':6s} {r['attempted']} ops, "
              f"{r['failed']} failed, {r['spans']} spans")
        for message in r["errors"]:
            print(f"  failure: {message}")
    print(f"selfcheck {'passed' if ok else 'failed'} in {time.monotonic() - start:.1f} s")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE_DIR}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            parser.error("--workload is required unless --selfcheck is given")
        result = run_once(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this fresh process and print its raw results as JSON.

Started by ``run.py``; not meant to be run by hand. Set-up time counts from
this module's first statement, before numpy or the package is imported,
to the end of the warm-up ops.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_ERRORS_KEPT = 20


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: MAX_ERRORS_KEPT - len(self.errors)])

    def raised(self) -> None:
        self.add([traceback.format_exc(limit=3).strip().splitlines()[-1]])


def run_phase(wl, op, seconds: float, tally: Tally, tracer=None) -> tuple[list[float], int]:
    """Run whole blocks of ops until ``seconds`` have passed, at least one.

    Returns the times of the ops whose output passed its check, and the
    number of ops run. The check runs outside the timed region, with the
    tracer paused.
    """
    times: list[float] = []
    ops = 0
    deadline = time.perf_counter() + seconds
    while ops == 0 or time.perf_counter() < deadline:
        for _ in range(wl.block):
            wl.prepare()
            ops += 1
            if tracer is not None:
                tracer.op_id += 1
                tracer.paused = False
            start = time.perf_counter()
            try:
                out = op()
            except Exception:
                tally.raised()
                continue
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.paused = True
            errors = wl.check(out)
            tally.add(errors)
            if not errors:
                wl.record(out, elapsed)
                times.append(elapsed)
    return times, ops


def import_seconds(samples: int) -> float:
    """Median time of a child that imports the package, minus a bare child."""
    def child(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return time.perf_counter() - start

    with_import, bare = [], []
    for _ in range(samples):
        with_import.append(child("import leodoppler"))
        bare.append(child("pass"))
    return statistics.median(with_import) - statistics.median(bare)


def peak_rss_mb(source: str) -> float:
    who = resource.RUSAGE_CHILDREN if source == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(args, tmp: Path) -> dict:
    import numpy as np

    import workloads as W

    tally = Tally()
    wl = W.WORKLOADS[args.workload](args.seed, args.tiny, tmp)
    try:
        warm = wl.warmup()
    except Exception:
        tally.raised()
        warm = []
    for out in warm:
        tally.add(wl.check(out))
    result = {
        "setup_s": time.perf_counter() - T0,
        "warmup_ops": len(warm),
        "numpy": np.__version__,
        "sizes": wl.sizes(),
    }
    if args.role == "setup":
        result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
        return result

    seconds = args.seconds / 2 if args.trace else args.seconds
    times, _ = run_phase(wl, wl.op, seconds, tally)
    result["op_times"] = times
    result["throughput"] = wl.throughput()
    result["peak_rss_mb"] = peak_rss_mb(wl.peak_rss_source)
    result["rss_source"] = wl.peak_rss_source
    if args.trace:
        result.update(trace(args, wl, tally, times, seconds, W))
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    return result


def trace(args, wl, tally: Tally, untraced: list[float], seconds: float, W) -> dict:
    """Traced half of a traced run: extras, then the wrapped ops."""
    from tracing import Tracer

    extras = wl.trace_extras(tally)
    tracer = Tracer()
    W.install_wraps(tracer)
    tracer.paused = True
    try:
        traced, ops = run_phase(wl, wl.traced_op, seconds, tally, tracer)
    finally:
        tracer.unwrap()
    metrics, absent = W.layer_metrics(tracer, ops)
    metrics.update(extras)
    reference = wl.overhead_reference or untraced
    if traced and reference:
        ratio = statistics.median(traced) / statistics.median(reference)
        metrics["trace.overhead_frac"] = ratio - 1.0
    metrics["cli.import_s"] = import_seconds(1 if args.tiny else 5)
    not_exercised = sorted(name for name in W.LAYER_METRICS if metrics.get(name, 0.0) == 0.0)
    spans_path = Path(".bench_out") / f"spans_{args.workload}_seed{args.seed}.npz"
    tracer.write(str(spans_path))
    return {
        "layer": {name: [metrics.get(name, 0.0), unit] for name, unit in W.LAYER_METRICS.items()},
        "absent_metrics": absent,
        "absent_names": tracer.absent,
        "not_exercised": not_exercised,
        "computed_bytes_per_op": tracer.counters.get("montecarlo.boundary_bytes", 0) / ops,
        "traced_op_times": traced,
        "spans": len(tracer.start),
        "spans_file": str(spans_path),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup"), default="main")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    tmp = Path(".bench_tmp") / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result = run(args, tmp.resolve())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

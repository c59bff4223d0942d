"""The four benchmark workloads: inputs, one op, output checks, layer metrics.

Each workload is a closed loop with one client: the worker calls ``op()``,
times it, then calls ``check()`` on its output outside the timed region.
Inputs come from the benchmark seed, so one seed always gives one sequence
of inputs. Package functions are called through their module attributes
(``distributions.doppler_cdf`` rather than an imported name) so that the
traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from leodoppler import cli, distributions, doppler, geometry, montecarlo, pointprocess

from tracing import Tracer

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "cli_small.json"

# KS gate at the 1% level: Kolmogorov's limit law gives P(sqrt(n) D > 1.63)
# of about 0.01, and the DKW bound with Massart's constant caps it at 0.0099.
KS_COEFF = 1.63

# Absolute tolerance of the quantile solver in Hz. The point this far below
# a returned quantile must still have CDF below p.
QUANTILE_TOL_HZ = 1e-6

# Relative slack for the envelope claim |exact| <= bound, which holds with
# equality on the ground track; float rounding is far below this.
ENVELOPE_RTOL = 1e-12


def _satellite() -> geometry.SatelliteConfig:
    """The CLI's default satellite: 600 km, 2 GHz carrier, standard Earth."""
    return geometry.SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3)


def _unit_monotone_errors(name: str, values: np.ndarray) -> list[str]:
    errors = []
    if not np.all((values >= 0.0) & (values <= 1.0)):
        errors.append(f"{name} leaves [0, 1]")
    if np.any(np.diff(values) < 0.0):
        errors.append(f"{name} is not monotone")
    return errors


def _ks_gate(n: int) -> float:
    return KS_COEFF / math.sqrt(n)


def _ratio(total: float, base: float) -> float:
    """``total`` divided by ``base``, or 0 when the base is 0 (nothing ran)."""
    return total / base if base else 0.0


class Workload:
    """One workload. Subclasses set ``name`` and implement ``op``/``check``.

    ``block`` ops run back to back before the deadline is checked, so that
    a run always holds whole cycles of a workload's inputs. The warm-up is
    one block and counts towards set-up time.
    """

    name = ""
    block = 1
    # Whose peak RSS is reported: "self" (the worker) or "children".
    peak_rss_source = "self"
    # Untimed op times the traced phase is compared with to get the tracing
    # overhead; None means the untraced phase of the same run.
    overhead_reference: list[float] | None = None

    def __init__(self, seed: int, tiny: bool, tmp: Path) -> None:
        self.tmp = tmp
        self.op_seconds: list[float] = []

    def sizes(self) -> dict:
        return {}

    def prepare(self) -> None:
        """Untimed work before the next op."""

    def op(self):
        raise NotImplementedError

    def traced_op(self):
        """The op that the traced run wraps; the same op unless overridden."""
        return self.op()

    def check(self, output) -> list[str]:
        return []

    def record(self, output, seconds: float) -> None:
        """Tally what one successful timed op did."""
        self.op_seconds.append(seconds)

    def warmup(self) -> list:
        outputs = []
        for _ in range(self.block):
            self.prepare()
            outputs.append(self.op())
        return outputs

    def throughput(self) -> dict:
        """Workload-specific end-to-end rates: name -> (value, unit, samples)."""
        return {}

    def trace_extras(self, tally) -> dict:
        """Extra per-layer metrics of a traced run, measured untraced.

        Ops run here are checked and added to ``tally``.
        """
        return {}


class McLarge(Workload):
    """run_scenario on the default scene and both report writers, then one
    scene_scalar op.

    The scene_scalar op adds about 1 % to the op time. It is here so that
    the workloads run by default still reach ``pointprocess``, ``geometry``
    and ``doppler``, whose calls the traced run then times.
    """

    name = "mc_large"
    # The CLI default config's seed: the statistical gate runs on a frozen
    # sample stream, as the package's own acceptance tests do.
    SCENE_SEED = 1
    THREADS = 2

    def __init__(self, seed, tiny, tmp):
        super().__init__(seed, tiny, tmp)
        self.scenario = montecarlo.ScenarioConfig(
            cfg=_satellite(),
            rho=100e3,
            r_hat=200e3,
            n_users=8,
            trials=1250 if tiny else 1_250_000,
            seed=self.SCENE_SEED,
        )
        self.users = self.scenario.n_users * self.scenario.trials
        self.csv_path = tmp / "report.csv"
        self.summary_path = tmp / "summary.txt"
        # The cell draws are the inputs that come from the benchmark seed.
        self.cell = SceneScalar(seed, tiny, tmp)
        self.users_done = 0
        # Time of run() alone in each op: the base of thread_speedup.
        self.run_seconds: list[float] = []
        self.last_report = None

    def sizes(self):
        return {
            "users_per_op": self.users,
            "n_users": self.scenario.n_users,
            "trials": self.scenario.trials,
            "threads": self.THREADS,
            "scene_seed": self.SCENE_SEED,
            "float64_column_mb": self.users * 8 / 1e6,
            "scene_scalar_per_op": self.cell.sizes(),
        }

    def run(self, threads: int):
        report = montecarlo.run_scenario(self.scenario, threads=threads)
        montecarlo.write_report_csv(report, self.csv_path)
        montecarlo.write_summary(report, self.summary_path)
        return report

    def op(self):
        start = time.perf_counter()
        report = self.run(self.THREADS)
        run_s = time.perf_counter() - start
        return report, run_s, self.cell.op()

    def check(self, out):
        report, _, cell = out
        return self.check_report(report) + self.cell.check(cell)

    def check_report(self, report):
        errors = []
        n = self.users - report.excluded
        if not report.ks_bound <= _ks_gate(n):
            errors.append(f"ks_bound {report.ks_bound:.3g} above {_ks_gate(n):.3g}")
        if report.dominance_violations != 0:
            errors.append(f"{report.dominance_violations} dominance violations")
        if report.excluded != 0:
            errors.append(f"{report.excluded} users excluded")
        for name in ("cdf_analytic", "cdf_emp_exact", "cdf_emp_bound"):
            errors += _unit_monotone_errors(name, np.asarray(getattr(report, name)))
        summary = parse_summary(self.summary_path)
        if int(summary.get("violations", -1)) != report.dominance_violations:
            errors.append("summary file disagrees with the report")
        if not self.csv_path.is_file():
            errors.append("report CSV missing")
        return errors

    def record(self, out, seconds):
        super().record(out, seconds)
        self.users_done += self.users
        self.last_report, run_s, _ = out
        self.run_seconds.append(run_s)

    def throughput(self):
        rate = _ratio(self.users_done, sum(self.op_seconds))
        return {"users_per_s": (rate, "users/s", len(self.op_seconds))}

    def trace_extras(self, tally):
        # Single-thread baseline on the same scene; its report must equal the
        # two-thread one bit for bit.
        base = self.last_report
        start = time.perf_counter()
        single = self.run(1)
        elapsed = time.perf_counter() - start
        errors = self.check_report(single)
        if base is None or not _reports_identical(single, base):
            errors.append("threads=1 report differs from threads=2 report")
        tally.add(errors)
        p50 = statistics.median(self.run_seconds) if self.run_seconds else 0.0
        return {"montecarlo.thread_speedup": elapsed / p50 if p50 else 0.0}


def _reports_identical(a, b) -> bool:
    fields = ("x_hz", "cdf_analytic", "cdf_emp_exact", "cdf_emp_bound",
              "ks_bound", "ks_exact", "dominance_violations", "excluded")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


class LawCurves(Workload):
    """Closed-form CDF, PDF, order statistics and quantiles on five geometries."""

    name = "law_curves"
    # (rho, r_hat) in metres: inner disk, overhead, lens, and two more lens
    # scales, so every branch of the disk-distance law is evaluated.
    GEOMETRIES = ((100e3, 50e3), (100e3, 0.0), (100e3, 200e3), (50e3, 100e3), (150e3, 300e3))
    ORDER_N = 8
    block = len(GEOMETRIES)

    def __init__(self, seed, tiny, tmp):
        super().__init__(seed, tiny, tmp)
        rng = np.random.default_rng(seed)
        cfg = _satellite()
        self.n_grid = 1_000 if tiny else 100_000
        self.n_probs = 100 if tiny else 10_000
        self.cases = []
        for rho, r_hat in self.GEOMETRIES:
            dist = distributions.DopplerMagnitudeDistribution.for_satellite(cfg, rho, r_hat)
            # Sorted uniform points reaching 2% past the support top, so the
            # flat tail above the support is evaluated too.
            top = 1.02 * distributions.doppler_support_max(dist)
            grid = np.sort(rng.uniform(0.0, top, self.n_grid))
            probs = rng.uniform(0.0, 1.0, self.n_probs)
            scalar_probs = [float(p) for p in rng.uniform(0.0, 1.0, 3)]
            self.cases.append((dist, grid, probs, scalar_probs))
        self.next_case = 0
        self.eval_points = 0
        self.eval_s = 0.0
        self.quantile_probs = 0
        self.quantile_s = 0.0

    def sizes(self):
        return {
            "grid_points": self.n_grid,
            "probabilities": self.n_probs + 3,
            "geometries": len(self.GEOMETRIES),
            "order_n": self.ORDER_N,
        }

    def op(self):
        dist, grid, probs, scalar_probs = self.cases[self.next_case]
        self.next_case = (self.next_case + 1) % len(self.cases)
        t0 = time.perf_counter()
        cdf = distributions.doppler_cdf(grid, dist)
        pdf = distributions.doppler_pdf(grid, dist)
        cdf_max = distributions.max_doppler_cdf(grid, dist, self.ORDER_N)
        cdf_min = distributions.min_doppler_cdf(grid, dist, self.ORDER_N)
        t1 = time.perf_counter()
        q = distributions.doppler_quantile(probs, dist)
        q_scalar = [distributions.doppler_quantile(p, dist) for p in scalar_probs]
        t2 = time.perf_counter()
        return {
            "case": (dist, grid, probs, scalar_probs),
            "curves": (cdf, pdf, cdf_max, cdf_min),
            "q": q,
            "q_scalar": q_scalar,
            "eval_s": t1 - t0,
            "quantile_s": t2 - t1,
        }

    def check(self, out):
        dist, grid, probs, scalar_probs = out["case"]
        cdf, pdf, cdf_max, cdf_min = (np.asarray(c) for c in out["curves"])
        errors = _unit_monotone_errors("cdf", cdf)
        errors += _unit_monotone_errors("max order-statistic cdf", cdf_max)
        errors += _unit_monotone_errors("min order-statistic cdf", cdf_min)
        if not np.all(np.isfinite(pdf) & (pdf >= 0.0)):
            errors.append("pdf negative or not finite")
        p = np.concatenate([probs, scalar_probs])
        q = np.concatenate([np.asarray(out["q"]), np.asarray(out["q_scalar"])])
        if not np.all(np.asarray(distributions.doppler_cdf(q, dist)) >= p):
            errors.append("cdf(quantile(p)) < p")
        below = np.maximum(q - QUANTILE_TOL_HZ, 0.0)
        if not np.all(np.asarray(distributions.doppler_cdf(below, dist)) < p):
            errors.append("quantile not the smallest within the solver tolerance")
        if dist.r_hat == 0.0:
            gap = np.max(np.abs(np.asarray(distributions.overhead_cdf(grid, dist)) - cdf))
            if not gap <= 1e-12:
                errors.append(f"overhead_cdf differs from doppler_cdf by {gap:.3g}")
        return errors

    def record(self, out, seconds):
        super().record(out, seconds)
        self.eval_points += 4 * self.n_grid
        self.eval_s += out["eval_s"]
        self.quantile_probs += self.n_probs + 3
        self.quantile_s += out["quantile_s"]

    def throughput(self):
        n = len(self.op_seconds)
        return {
            "evals_per_s": (_ratio(self.eval_points, self.eval_s), "points/s", n),
            "quantiles_per_s": (_ratio(self.quantile_probs, self.quantile_s), "probs/s", n),
        }


# Label, then the subcommand's arguments. Labels name the per-layer metrics.
CLI_COMMANDS = (
    ("cdf", ("cdf",)),
    ("pdf", ("pdf",)),
    ("order-stats", ("order-stats", "--which", "max", "--n", "8")),
    ("simulate", ("simulate",)),
    ("simulate_t2", ("simulate", "--threads", "2")),
    ("figure_fig2", ("figure", "--preset", "fig2")),
    ("figure_fig3", ("figure", "--preset", "fig3")),
    ("figure_fig4", ("figure", "--preset", "fig4")),
)


def run_cli(args, out_dir: Path) -> subprocess.CompletedProcess:
    """Run one ``leodoppler`` subcommand in a fresh child interpreter.

    The child inherits ``PYTHONPATH``, so it imports the same package.
    """
    return subprocess.run(
        [sys.executable, "-m", "leodoppler", *args, "--out", str(out_dir)],
        capture_output=True, text=True, timeout=120,
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_summary(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def capture_cli_outputs(out_dir: Path) -> dict:
    """Reference entry for each CLI command run once on the default config."""
    reference = {}
    for label, args in CLI_COMMANDS:
        proc = run_cli(args, out_dir / label)
        proc.check_returncode()
        entry = {"csv_sha256": {}, "summaries": {}}
        for line in proc.stdout.splitlines():
            path = Path(line)
            if path.suffix == ".csv":
                entry["csv_sha256"][path.name] = sha256_file(path)
            else:
                summary = parse_summary(path)
                entry["summaries"][path.name] = {
                    "violations": int(summary["violations"]),
                    "excluded": int(summary["excluded"]),
                    "ks_exact": float(summary["ks_exact"]),
                }
        reference[label] = entry
    return reference


class CliSmall(Workload):
    """One ``leodoppler`` subcommand per op, each in a fresh child process.

    Commands run on the default config, whose outputs are pinned by the
    reference hashes; the seed sets the order of the commands in each cycle.
    """

    name = "cli_small"
    block = len(CLI_COMMANDS)
    peak_rss_source = "children"
    # Users per Monte Carlo run of the default config, for the KS gate.
    DEFAULT_USERS = 8 * 1250
    # Untraced in-process runs of each command in a traced run.
    INPROCESS_REPEATS = 3

    def __init__(self, seed, tiny, tmp):
        super().__init__(seed, tiny, tmp)
        self.rng = np.random.default_rng(seed)
        self.reference = json.loads(REFERENCE_PATH.read_text())
        self.order: list[int] = []
        self.current = 0
        self.by_label: dict[str, list[float]] = {label: [] for label, _ in CLI_COMMANDS}

    def sizes(self):
        return {"commands": [label for label, _ in CLI_COMMANDS], "config": "default"}

    def _out(self, label: str) -> Path:
        return self.tmp / label

    def prepare(self):
        if not self.order:
            self.order = [int(k) for k in self.rng.permutation(len(CLI_COMMANDS))]
        self.current = self.order.pop(0)
        shutil.rmtree(self._out(CLI_COMMANDS[self.current][0]), ignore_errors=True)

    def _child(self, label: str, args) -> tuple[str, int, str]:
        proc = run_cli(args, self._out(label))
        return label, proc.returncode, proc.stdout

    def op(self):
        label, args = CLI_COMMANDS[self.current]
        return self._child(label, args)

    def warmup(self):
        # One child warms the file cache for the interpreter, numpy and the
        # package without consuming a cycle of the measured order.
        label, args = CLI_COMMANDS[0]
        shutil.rmtree(self._out(label), ignore_errors=True)
        return [self._child(label, args)]

    def traced_op(self):
        """The same command through ``cli.main`` in this process."""
        label, args = CLI_COMMANDS[self.current]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main([*args, "--out", str(self._out(label))])
        return label, code, buffer.getvalue()

    def check(self, out):
        label, code, stdout = out
        if code != 0:
            return [f"{label}: exit code {code}"]
        expected = self.reference[label]
        paths = [Path(line) for line in stdout.splitlines()]
        errors = [f"{label}: printed path {p} does not exist" for p in paths if not p.is_file()]
        if errors:
            return errors
        names = {p.name for p in paths}
        wanted = set(expected["csv_sha256"]) | set(expected["summaries"])
        if names != wanted:
            errors.append(f"{label}: wrote {sorted(names)}, expected {sorted(wanted)}")
        gate = _ks_gate(self.DEFAULT_USERS)
        for path in paths:
            if path.name in expected["csv_sha256"]:
                if sha256_file(path) != expected["csv_sha256"][path.name]:
                    errors.append(f"{label}: {path.name} differs from the reference bytes")
            elif path.name in expected["summaries"]:
                ref = expected["summaries"][path.name]
                got = parse_summary(path)
                counts = (int(got["violations"]), int(got["excluded"]))
                if counts != (ref["violations"], ref["excluded"]):
                    errors.append(f"{label}: {path.name} counts differ from the reference")
                n = self.DEFAULT_USERS - int(got["excluded"])
                if not float(got["ks_bound"]) <= _ks_gate(n):
                    errors.append(f"{label}: {path.name} ks_bound above its gate")
                if not abs(float(got["ks_exact"]) - ref["ks_exact"]) <= gate:
                    errors.append(f"{label}: {path.name} ks_exact outside its gate")
        return errors

    def record(self, out, seconds):
        super().record(out, seconds)
        self.by_label[out[0]].append(seconds)

    def trace_extras(self, tally):
        # In-process cli.main time per command, untraced, for the start-up
        # share; the traced run then wraps the same in-process calls.
        main_s: dict[str, list[float]] = {label: [] for label, _ in CLI_COMMANDS}
        for _ in range(self.INPROCESS_REPEATS):
            for index, (label, _) in enumerate(CLI_COMMANDS):
                self.current = index
                shutil.rmtree(self._out(label), ignore_errors=True)
                start = time.perf_counter()
                out = self.traced_op()
                main_s[label].append(time.perf_counter() - start)
                tally.add(self.check(out))
        metrics = {}
        for label, _ in CLI_COMMANDS:
            process = statistics.median(self.by_label[label]) if self.by_label[label] else 0.0
            metrics[f"cli.process_s.{label}"] = process
            metrics[f"cli.main_s.{label}"] = statistics.median(main_s[label])
        total_process = sum(metrics[f"cli.process_s.{label}"] for label, _ in CLI_COMMANDS)
        total_main = sum(metrics[f"cli.main_s.{label}"] for label, _ in CLI_COMMANDS)
        metrics["cli.startup_frac"] = 1.0 - total_main / total_process if total_process else 0.0
        self.overhead_reference = [t for ts in main_s.values() for t in ts]
        return metrics


class SceneScalar(Workload):
    """One cell draw, then a scalar-API pass for every sampled user."""

    name = "scene_scalar"
    R_CELL = 500e3
    MEAN_PARENTS = 20.0
    RHO = 100e3
    N_PER_CLUSTER = 8
    # Seconds from the pass's peak elevation; at 600 km every user of the
    # cell keeps the satellite above the horizon over this whole span.
    OFFSETS_S = (-300.0, -200.0, -100.0, -50.0, 0.0, 50.0, 100.0, 200.0, 300.0)
    EPSILON = 0.05

    def __init__(self, seed, tiny, tmp):
        super().__init__(seed, tiny, tmp)
        self.rng = np.random.default_rng(seed)
        self.cfg = _satellite()
        self.model = pointprocess.CellModel(
            r_cell=self.R_CELL,
            lambda_c=self.MEAN_PARENTS / (math.pi * self.R_CELL**2),
            rho=self.RHO,
            n=self.N_PER_CLUSTER,
        )
        self.serving = geometry.PlanarPoint(0.0, 0.0)
        self.csv_path = tmp / "clusters.csv"
        self.users_done = 0

    def sizes(self):
        return {
            "r_cell_m": self.R_CELL,
            "mean_parents": self.MEAN_PARENTS,
            "rho_m": self.RHO,
            "users_per_cluster": self.N_PER_CLUSTER,
            "time_offsets": len(self.OFFSETS_S),
        }

    def op(self):
        cfg = self.cfg
        clusters = pointprocess.sample_cell(self.model, self.rng)
        exact, bound, windows = [], [], []
        for cluster in clusters:
            for distance in pointprocess.distances_to_point(cluster, self.serving):
                gamma_min = float(distance) / cfg.r_e
                alpha_max = geometry.elevation_from_central_angle(gamma_min, cfg)
                pass_geometry = doppler.PassGeometry.from_max_elevation(alpha_max, cfg)
                for dt in self.OFFSETS_S:
                    gamma = geometry.central_angle(dt, pass_geometry.theta, cfg)
                    alpha = geometry.elevation_from_central_angle(gamma, cfg)
                    exact.append(doppler.doppler_exact(dt, pass_geometry, cfg))
                    bound.append(doppler.doppler_bound(alpha, cfg))
                windows.append(
                    doppler.epsilon_accuracy_offsets(self.EPSILON, pass_geometry.theta, cfg)
                )
        pointprocess.dump_clusters_csv(clusters, self.csv_path)
        return clusters, np.array(exact), np.array(bound), windows

    def check(self, out):
        clusters, exact, bound, windows = out
        errors = []
        for cluster in clusters:
            offsets = cluster.users - np.array([cluster.center.x, cluster.center.y])
            if np.any(np.hypot(offsets[:, 0], offsets[:, 1]) > self.RHO):
                errors.append("a user lies outside its cluster disk")
                break
        if np.any(np.abs(exact) > bound * (1.0 + ENVELOPE_RTOL)):
            errors.append("|doppler_exact| exceeds doppler_bound at the same elevation")
        if any(w is not None and not w[0] < w[1] for w in windows):
            errors.append("epsilon window with t_near >= t_far")
        users = sum(c.users.shape[0] for c in clusters)
        with open(self.csv_path, encoding="ascii") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != users:
            errors.append(f"cluster CSV has {rows} rows for {users} users")
        return errors

    def record(self, out, seconds):
        super().record(out, seconds)
        self.users_done += sum(c.users.shape[0] for c in out[0])

    def throughput(self):
        rate = _ratio(self.users_done, sum(self.op_seconds))
        return {"users_per_s": (rate, "users/s", len(self.op_seconds))}


WORKLOADS = {cls.name: cls for cls in (McLarge, LawCurves, CliSmall, SceneScalar)}


# ---------------------------------------------------------------- tracing ----

def _points(args, kwargs, result):
    return {"amount": float(np.size(args[0]))}


def _file_bytes(args, kwargs, result):
    return {"amount": float(os.path.getsize(args[1]))}


def _cell_counts(args, kwargs, result):
    return {
        "pointprocess.parents": len(result),
        "pointprocess.users": sum(c.users.shape[0] for c in result),
    }


def _mc_users(args, kwargs, result):
    scenario = args[0]
    return {"montecarlo.users": scenario.n_users * scenario.trials}


def _boundary_bytes(args, kwargs, result):
    # Bytes of the sample arrays that cross a Monte Carlo layer boundary.
    values = (getattr(v, "samples", v) for v in (*args, result))
    return {"montecarlo.boundary_bytes": sum(v.nbytes for v in values if isinstance(v, np.ndarray))}


def _mc_cdf_counts(args, kwargs, result):
    return {**_points(args, kwargs, result), **_boundary_bytes(args, kwargs, result)}


def install_wraps(tracer: Tracer) -> None:
    """Wrap every package name the workloads reach, under its layer's name.

    Names are wrapped where callers look them up: ``montecarlo.doppler_cdf``
    is the CDF that ``run_scenario`` and ``ks_distance`` call, and
    ``distributions.doppler_cdf`` the one ``doppler_quantile`` calls.
    """
    mc, dist, pp = montecarlo, distributions, pointprocess
    for owner in (mc, cli):
        tracer.wrap(owner, "run_scenario", "montecarlo.run_scenario", count=_mc_users)
        tracer.wrap(owner, "write_report_csv", "montecarlo.write_report_csv", count=_file_bytes)
        tracer.wrap(owner, "write_summary", "montecarlo.write_summary", count=_file_bytes)
    tracer.wrap(mc, "ks_distance", "montecarlo.ks_distance", count=_boundary_bytes)
    tracer.wrap(getattr(mc, "EmpiricalCdf", None), "from_samples",
                "montecarlo.EmpiricalCdf.from_samples", count=_boundary_bytes, static=True)
    tracer.wrap(mc, "doppler_cdf", "distributions.doppler_cdf", count=_mc_cdf_counts)
    for owner in (dist, cli):
        tracer.wrap(owner, "doppler_cdf", "distributions.doppler_cdf", count=_points)
        tracer.wrap(owner, "doppler_pdf", "distributions.doppler_pdf", count=_points)
        tracer.wrap(owner, "max_doppler_cdf", "distributions.max_doppler_cdf", count=_points)
        tracer.wrap(owner, "min_doppler_cdf", "distributions.min_doppler_cdf", count=_points)
    tracer.wrap(dist, "doppler_quantile", "distributions.doppler_quantile", count=_points)
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(pp, "sample_cell", "pointprocess.sample_cell", count=_cell_counts)
    tracer.wrap(pp, "sample_uniform_disk", "pointprocess.sample_uniform_disk")
    tracer.wrap(pp, "distances_to_point", "pointprocess.distances_to_point")
    tracer.wrap(pp, "dump_clusters_csv", "pointprocess.dump_clusters_csv", count=_file_bytes)
    tracer.wrap(geometry, "central_angle", "geometry.central_angle")
    tracer.wrap(geometry, "elevation_from_central_angle", "geometry.elevation_from_central_angle")
    tracer.wrap(doppler, "slant_range", "geometry.slant_range")
    tracer.wrap(getattr(doppler, "PassGeometry", None), "from_max_elevation",
                "doppler.PassGeometry.from_max_elevation", static=True)
    tracer.wrap(doppler, "theta_of_alpha_max", "doppler.theta_of_alpha_max")
    tracer.wrap(doppler, "doppler_exact", "doppler.doppler_exact")
    tracer.wrap(doppler, "doppler_bound", "doppler.doppler_bound")
    tracer.wrap(doppler, "epsilon_accuracy_offsets", "doppler.epsilon_accuracy_offsets")


# Per-layer metric names with their units, in report order.
LAYER_METRICS = {
    "montecarlo.run_s": "s/op",
    "montecarlo.sample_self_s": "s/op",
    "montecarlo.sort_s": "s/op",
    "montecarlo.ks_s": "s/op",
    "montecarlo.ks_cdf_points": "points/op",
    "montecarlo.bytes_per_user": "B/user",
    "montecarlo.thread_speedup": "ratio",
    "montecarlo.write_s": "s/op",
    "montecarlo.write_bytes": "B/op",
    "distributions.cdf_points": "points/op",
    "distributions.cdf_s": "s/op",
    "distributions.ns_per_cdf_point": "ns/point",
    "distributions.pdf_s": "s/op",
    "distributions.quantile_s": "s/op",
    "distributions.quantile_cdf_passes": "passes/call",
    "pointprocess.sample_cell_s": "s/op",
    "pointprocess.parents": "parents/op",
    "pointprocess.users": "users/op",
    "pointprocess.dump_s": "s/op",
    "pointprocess.dump_bytes": "B/op",
    "geometry.calls": "calls/op",
    "geometry.self_s": "s/op",
    "geometry.us_per_call": "us/call",
    "doppler.calls": "calls/op",
    "doppler.self_s": "s/op",
    "doppler.us_per_call": "us/call",
    "cli.import_s": "s",
    **{f"cli.process_s.{label}": "s" for label, _ in CLI_COMMANDS},
    **{f"cli.main_s.{label}": "s" for label, _ in CLI_COMMANDS},
    "cli.startup_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# Wrapped names each metric is computed from; a metric whose names are all
# absent from the package is reported as absent.
LAYER_SOURCES = {
    "montecarlo.run_s": ["montecarlo.run_scenario"],
    "montecarlo.sample_self_s": ["montecarlo.run_scenario"],
    "montecarlo.sort_s": ["montecarlo.EmpiricalCdf.from_samples"],
    "montecarlo.ks_s": ["montecarlo.ks_distance"],
    "montecarlo.ks_cdf_points": ["montecarlo.ks_distance"],
    "montecarlo.write_s": ["montecarlo.write_report_csv", "montecarlo.write_summary"],
    "montecarlo.write_bytes": ["montecarlo.write_report_csv", "montecarlo.write_summary"],
    "distributions.cdf_points": ["distributions.doppler_cdf"],
    "distributions.cdf_s": ["distributions.doppler_cdf"],
    "distributions.ns_per_cdf_point": ["distributions.doppler_cdf"],
    "distributions.pdf_s": ["distributions.doppler_pdf"],
    "distributions.quantile_s": ["distributions.doppler_quantile"],
    "distributions.quantile_cdf_passes": ["distributions.doppler_quantile"],
    "pointprocess.sample_cell_s": ["pointprocess.sample_cell"],
    "pointprocess.parents": ["pointprocess.sample_cell"],
    "pointprocess.users": ["pointprocess.sample_cell"],
    "pointprocess.dump_s": ["pointprocess.dump_clusters_csv"],
    "pointprocess.dump_bytes": ["pointprocess.dump_clusters_csv"],
}


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced phase of ``ops`` ops, and absent names."""
    s = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0.0}

    def get(name, key):
        return s.get(name, empty)[key]

    def layer(prefix, key):
        return sum(v[key] for n, v in s.items() if n.startswith(prefix + "."))

    ks_points, _ = tracer.children("montecarlo.ks_distance", "distributions.doppler_cdf")
    def count(key):
        return tracer.counters.get(key, 0.0)

    mc_users = count("montecarlo.users")
    cdf_points = get("distributions.doppler_cdf", "amount")
    cdf_s = get("distributions.doppler_cdf", "total_s")
    _, passes = tracer.children("distributions.doppler_quantile", "distributions.doppler_cdf")
    geo_calls, geo_self = layer("geometry", "calls"), layer("geometry", "self_s")
    dop_calls, dop_self = layer("doppler", "calls"), layer("doppler", "self_s")
    writes = ("montecarlo.write_report_csv", "montecarlo.write_summary")
    metrics = {
        "montecarlo.run_s": _ratio(get("montecarlo.run_scenario", "total_s"), ops),
        "montecarlo.sample_self_s": _ratio(get("montecarlo.run_scenario", "self_s"), ops),
        "montecarlo.sort_s": _ratio(get("montecarlo.EmpiricalCdf.from_samples", "total_s"), ops),
        "montecarlo.ks_s": _ratio(get("montecarlo.ks_distance", "total_s"), ops),
        "montecarlo.ks_cdf_points": _ratio(float(ks_points.sum()), ops),
        "montecarlo.bytes_per_user": _ratio(count("montecarlo.boundary_bytes"), mc_users),
        "montecarlo.write_s": _ratio(sum(get(n, "total_s") for n in writes), ops),
        "montecarlo.write_bytes": _ratio(sum(get(n, "amount") for n in writes), ops),
        "distributions.cdf_points": _ratio(cdf_points, ops),
        "distributions.cdf_s": _ratio(cdf_s, ops),
        "distributions.ns_per_cdf_point": _ratio(cdf_s * 1e9, cdf_points),
        "distributions.pdf_s": _ratio(get("distributions.doppler_pdf", "total_s"), ops),
        "distributions.quantile_s": _ratio(get("distributions.doppler_quantile", "total_s"), ops),
        "distributions.quantile_cdf_passes": float(np.median(passes)) if passes.size else 0.0,
        "pointprocess.sample_cell_s": _ratio(get("pointprocess.sample_cell", "total_s"), ops),
        "pointprocess.parents": _ratio(count("pointprocess.parents"), ops),
        "pointprocess.users": _ratio(count("pointprocess.users"), ops),
        "pointprocess.dump_s": _ratio(get("pointprocess.dump_clusters_csv", "total_s"), ops),
        "pointprocess.dump_bytes": _ratio(get("pointprocess.dump_clusters_csv", "amount"), ops),
        "geometry.calls": _ratio(geo_calls, ops),
        "geometry.self_s": _ratio(geo_self, ops),
        "geometry.us_per_call": _ratio(geo_self * 1e6, geo_calls),
        "doppler.calls": _ratio(dop_calls, ops),
        "doppler.self_s": _ratio(dop_self, ops),
        "doppler.us_per_call": _ratio(dop_self * 1e6, dop_calls),
    }
    absent = [
        metric for metric, sources in LAYER_SOURCES.items()
        if not any(name in tracer.names for name in sources)
    ]
    return metrics, absent

"""Command-line frontend: evaluate curves, simulate, and run figure presets.

Subcommands
    cdf          CDF of the Doppler magnitude on a grid over its support.
    pdf          Density of the Doppler magnitude on the same grid.
    order-stats  CDF of the single / minimum / maximum magnitude over N users.
    simulate     Monte Carlo comparison report plus a key=value summary.
    figure       Bundled parameter sweeps (fig2 | fig3 | fig4), one report
                 CSV and summary per scenario on a sweep-common grid.

Configuration is a line-oriented ``key = value`` file with unit-suffixed
keys (km, GHz); values are converted to strict SI at the parse boundary.
Exit codes: 0 ok, 2 config parse error, 3 validation error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .distributions import (
    DopplerMagnitudeDistribution,
    doppler_cdf,
    doppler_pdf,
    doppler_support_max,
    max_doppler_cdf,
    min_doppler_cdf,
)
from .geometry import SatelliteConfig
from .montecarlo import (
    MAX_GRID_POINTS,
    MAX_USERS,
    ScenarioConfig,
    run_scenario,
    write_report_csv,
    write_summary,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

_FLOAT_KEYS = (
    "fc_ghz",
    "h_km",
    "omega_s_rad_s",
    "omega_e_rad_s",
    "theta_i_rad",
    "r_e_km",
    "rho_km",
    "r_hat_km",
)
_INT_KEYS = ("n_users", "trials", "seed", "grid_points")
VALID_KEYS = frozenset(_FLOAT_KEYS + _INT_KEYS)

# Reference constants for the two standard altitudes; other altitudes must
# state omega_s_rad_s explicitly.
_OMEGA_S_BY_H_KM = {600.0: 1.1e-3, 1200.0: 9.5809e-4}

_DEFAULTS = {
    "fc_ghz": 2.0,
    "r_e_km": 6371.0,
    "omega_e_rad_s": 7.27e-5,
    "theta_i_rad": 0.0,
    "rho_km": 100.0,
    "n_users": 8,
    "trials": 1250,
    "seed": 1,
    "grid_points": 512,
}


class ConfigParseError(Exception):
    """Malformed config text: bad syntax, unknown key, or unreadable value."""


class ConfigValidationError(Exception):
    """Config text parsed but the values violate a model invariant."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters in SI units."""

    satellite: SatelliteConfig
    rho: float
    r_hat: float
    n_users: int
    trials: int
    seed: int
    grid_points: int


def _parse_number(key: str, raw: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigParseError(
            f"line {lineno}: value for '{key}' is not a number: '{raw}'"
        ) from None


def parse_config(path) -> RunConfig:
    """Read a key = value config file and resolve it to SI parameters.

    Missing keys fall back to the documented defaults; h_km is required.
    Unknown keys, repeated keys, and non-numeric values are parse errors;
    values that break a model invariant are validation errors.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, float] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in VALID_KEYS:
            raise ConfigParseError(
                f"line {lineno}: unknown key '{key}' (valid keys: "
                f"{', '.join(sorted(VALID_KEYS))})"
            )
        if key in values:
            raise ConfigParseError(f"line {lineno}: key '{key}' given twice")
        values[key] = _parse_number(key, raw_value, lineno)
    return _resolve(values)


def _resolve(values: dict[str, float]) -> RunConfig:
    if "h_km" not in values:
        raise ConfigValidationError("config must set h_km (satellite altitude)")
    h_km = values["h_km"]
    if not h_km > 0.0:
        raise ConfigValidationError(f"h_km must be positive, got {h_km}")
    merged = dict(_DEFAULTS)
    merged.update(values)
    if "omega_s_rad_s" not in merged:
        if h_km in _OMEGA_S_BY_H_KM:
            merged["omega_s_rad_s"] = _OMEGA_S_BY_H_KM[h_km]
        else:
            raise ConfigValidationError(
                f"omega_s_rad_s is required for altitude {h_km} km "
                f"(built-in values exist only for 600 and 1200 km)"
            )
    if "r_hat_km" not in merged:
        merged["r_hat_km"] = 2.0 * merged["rho_km"]
    for key in _INT_KEYS:
        if not math.isfinite(merged[key]) or int(merged[key]) != merged[key]:
            raise ConfigValidationError(f"{key} must be an integer, got {merged[key]}")
        merged[key] = int(merged[key])
    if not 2 <= merged["grid_points"] <= MAX_GRID_POINTS:
        raise ConfigValidationError(
            f"grid_points must be 2 to {MAX_GRID_POINTS}, got {merged['grid_points']}"
        )
    try:
        satellite = SatelliteConfig(
            f_c=merged["fc_ghz"] * 1e9,
            h=merged["h_km"] * 1e3,
            omega_s=merged["omega_s_rad_s"],
            omega_e=merged["omega_e_rad_s"],
            theta_i=merged["theta_i_rad"],
            r_e=merged["r_e_km"] * 1e3,
        )
        if merged["rho_km"] <= 0.0:
            raise ValueError(f"rho_km must be positive, got {merged['rho_km']}")
        if merged["r_hat_km"] < 0.0:
            raise ValueError(f"r_hat_km must be nonnegative, got {merged['r_hat_km']}")
        if merged["n_users"] < 1:
            raise ValueError(f"n_users must be at least 1, got {merged['n_users']}")
        if merged["trials"] < 1:
            raise ValueError(f"trials must be at least 1, got {merged['trials']}")
        if merged["n_users"] * merged["trials"] > MAX_USERS:
            raise ValueError(
                f"n_users * trials must be at most {MAX_USERS}, "
                f"got {merged['n_users']} * {merged['trials']}"
            )
        if not 0 <= merged["seed"] < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {merged['seed']}")
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc
    return RunConfig(
        satellite=satellite,
        rho=merged["rho_km"] * 1e3,
        r_hat=merged["r_hat_km"] * 1e3,
        n_users=merged["n_users"],
        trials=merged["trials"],
        seed=merged["seed"],
        grid_points=merged["grid_points"],
    )


def default_run_config(h_km: float = 600.0) -> RunConfig:
    """RunConfig for the documented defaults at a standard altitude."""
    return _resolve({"h_km": h_km})


def _distribution(rc: RunConfig) -> DopplerMagnitudeDistribution:
    return DopplerMagnitudeDistribution.for_satellite(rc.satellite, rc.rho, rc.r_hat)


def _write_curve_csv(grid: np.ndarray, values: np.ndarray, path: Path) -> None:
    lines = ["x_hz,value"]
    lines.extend(f"{x:.9g},{v:.9g}" for x, v in zip(grid, values))
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def _grid(rc: RunConfig, dist: DopplerMagnitudeDistribution) -> np.ndarray:
    return np.linspace(0.0, doppler_support_max(dist), rc.grid_points)


def cmd_cdf(rc: RunConfig, out_dir: Path) -> Path:
    """Write the magnitude CDF curve; returns the CSV path."""
    dist = _distribution(rc)
    grid = _grid(rc, dist)
    out = out_dir / "cdf.csv"
    _write_curve_csv(grid, np.asarray(doppler_cdf(grid, dist)), out)
    return out


def cmd_pdf(rc: RunConfig, out_dir: Path) -> Path:
    """Write the magnitude density curve; returns the CSV path."""
    dist = _distribution(rc)
    grid = _grid(rc, dist)
    out = out_dir / "pdf.csv"
    _write_curve_csv(grid, np.asarray(doppler_pdf(grid, dist)), out)
    return out


def cmd_order_stats(rc: RunConfig, out_dir: Path, which: str, n: int) -> Path:
    """Write the CDF of the single / min / max magnitude over n users."""
    if which not in ("single", "min", "max"):
        raise ConfigValidationError(f"--which must be single, min or max, got '{which}'")
    if n < 1:
        raise ConfigValidationError(f"order statistic needs n >= 1, got {n}")
    dist = _distribution(rc)
    grid = _grid(rc, dist)
    if which == "single":
        values = np.asarray(doppler_cdf(grid, dist))
    elif which == "min":
        values = np.asarray(min_doppler_cdf(grid, dist, n))
    else:
        values = np.asarray(max_doppler_cdf(grid, dist, n))
    out = out_dir / f"order_stats_{which}_n{n}.csv"
    _write_curve_csv(grid, values, out)
    return out


def _scenario(rc: RunConfig) -> ScenarioConfig:
    return ScenarioConfig(
        cfg=rc.satellite,
        rho=rc.rho,
        r_hat=rc.r_hat,
        n_users=rc.n_users,
        trials=rc.trials,
        seed=rc.seed,
    )


def cmd_simulate(rc: RunConfig, out_dir: Path, threads: int = 1) -> tuple[Path, Path]:
    """Run the Monte Carlo comparison; returns (report CSV, summary) paths."""
    report = run_scenario(_scenario(rc), threads=threads, grid_points=rc.grid_points)
    csv_path = out_dir / "simulate_report.csv"
    summary_path = out_dir / "simulate_summary.txt"
    write_report_csv(report, csv_path)
    write_summary(report, summary_path)
    return csv_path, summary_path


def _standard_satellite(rc: RunConfig, h_km: float) -> SatelliteConfig:
    """Satellite for a preset altitude, keeping the run's carrier and Earth."""
    return SatelliteConfig(
        f_c=rc.satellite.f_c,
        h=h_km * 1e3,
        omega_s=_OMEGA_S_BY_H_KM[h_km],
        omega_e=rc.satellite.omega_e,
        theta_i=rc.satellite.theta_i,
        r_e=rc.satellite.r_e,
    )


def figure_scenarios(preset: str, rc: RunConfig) -> list[tuple[str, ScenarioConfig]]:
    """Labelled scenarios of one figure preset.

    fig2 sweeps the cluster radius (50/100/150 km, offset 2*rho, 600 km);
    fig3 sweeps the centre offset (0/100/200/300 km at rho = 100 km, 600 km);
    fig4 sweeps altitude and radius (600/1200 km x 100/200 km, offset 2*rho).
    """
    base = _scenario(rc)
    scenarios: list[tuple[str, ScenarioConfig]] = []
    if preset == "fig2":
        cfg = _standard_satellite(rc, 600.0)
        for rho_km in (50.0, 100.0, 150.0):
            scenarios.append(
                (
                    f"fig2_rho{int(rho_km):03d}km",
                    replace(base, cfg=cfg, rho=rho_km * 1e3, r_hat=2.0 * rho_km * 1e3),
                )
            )
    elif preset == "fig3":
        cfg = _standard_satellite(rc, 600.0)
        for r_hat_km in (0.0, 100.0, 200.0, 300.0):
            scenarios.append(
                (
                    f"fig3_rhat{int(r_hat_km):03d}km",
                    replace(base, cfg=cfg, rho=100.0e3, r_hat=r_hat_km * 1e3),
                )
            )
    elif preset == "fig4":
        for h_km in (600.0, 1200.0):
            cfg = _standard_satellite(rc, h_km)
            for rho_km in (100.0, 200.0):
                scenarios.append(
                    (
                        f"fig4_h{int(h_km):04d}km_rho{int(rho_km):03d}km",
                        replace(
                            base, cfg=cfg, rho=rho_km * 1e3, r_hat=2.0 * rho_km * 1e3
                        ),
                    )
                )
    else:
        raise ConfigValidationError(f"unknown preset '{preset}' (use fig2, fig3 or fig4)")
    return scenarios


def cmd_figure(preset: str, rc: RunConfig, out_dir: Path, threads: int = 1) -> list[Path]:
    """Run one preset sweep; returns the written paths.

    All scenarios of a sweep share one grid spanning the widest support, so
    rows at equal x are comparable across the sweep's files.
    """
    scenarios = figure_scenarios(preset, rc)
    x_top = max(
        doppler_support_max(
            DopplerMagnitudeDistribution.for_satellite(s.cfg, s.rho, s.r_hat)
        )
        for _, s in scenarios
    )
    written: list[Path] = []
    for label, scenario in scenarios:
        report = run_scenario(
            scenario, threads=threads, grid_points=rc.grid_points, x_max=x_top
        )
        csv_path = out_dir / f"{label}.csv"
        summary_path = out_dir / f"{label}_summary.txt"
        write_report_csv(report, csv_path)
        write_summary(report, summary_path)
        written.extend([csv_path, summary_path])
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leodoppler",
        description="Doppler magnitude statistics for clustered LEO ground users",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("cdf", "write the magnitude CDF curve"),
        ("pdf", "write the magnitude density curve"),
        ("order-stats", "write an order-statistic CDF curve"),
        ("simulate", "run the Monte Carlo comparison"),
        ("figure", "run a bundled parameter sweep"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", type=Path, help="key = value config file")
        cmd.add_argument(
            "--out", type=Path, default=Path("."), help="output directory (default: .)"
        )
        if name == "order-stats":
            cmd.add_argument(
                "--which",
                choices=("single", "min", "max"),
                default="single",
                help="which statistic to evaluate (default: single)",
            )
            cmd.add_argument(
                "--n", type=int, default=None, help="users per cluster (default: config n_users)"
            )
        if name in ("simulate", "figure"):
            cmd.add_argument(
                "--threads",
                type=int,
                default=1,
                help="worker threads, at most one per sampling chunk (default: 1)",
            )
        if name == "figure":
            cmd.add_argument(
                "--preset",
                choices=("fig2", "fig3", "fig4"),
                required=True,
                help="which sweep to run",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = parse_config(args.config) if args.config is not None else default_run_config()
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "cdf":
            written = [cmd_cdf(rc, out_dir)]
        elif args.command == "pdf":
            written = [cmd_pdf(rc, out_dir)]
        elif args.command == "order-stats":
            n = args.n if args.n is not None else rc.n_users
            written = [cmd_order_stats(rc, out_dir, args.which, n)]
        elif args.command == "simulate":
            written = list(cmd_simulate(rc, out_dir, threads=args.threads))
        else:
            written = cmd_figure(args.preset, rc, out_dir, threads=args.threads)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

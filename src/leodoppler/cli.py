"""Command-line frontend: evaluate curves, simulate, and run figure presets.

Subcommands
    cdf          CDF of the Doppler magnitude on a grid over its support.
    pdf          Density of the Doppler magnitude on the same grid.
    order-stats  CDF of the single / minimum / maximum magnitude over N users.
    simulate     Monte Carlo comparison report plus a key=value summary.
    figure       Bundled parameter sweeps (fig2 | fig3 | fig4), one report
                 CSV and summary per scenario on a sweep-common grid.

Configuration is a line-oriented ``key = value`` file with unit-suffixed
keys (km, GHz) and ``#`` comments; values are converted to strict SI at the
parse boundary.
Exit codes: 0 ok, 2 parse error (config file missing or malformed, bad
command-line argument, or no subcommand), 3 validation error, 4 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .distributions import (
    doppler_cdf,
    doppler_pdf,
    doppler_support_max,
    max_doppler_cdf,
    min_doppler_cdf,
)
from .geometry import SatelliteConfig, _integral
from .montecarlo import ScenarioConfig, run_scenario, write_report_csv, write_summary

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
}

# Curve statistic -> (file name pattern, law of (grid, distribution, n)).
# The lambdas look the law functions up in this module when called, so a
# wrapper installed on one of those names sees the call.
_CURVES = {
    "cdf": ("cdf.csv", lambda x, dist, n: doppler_cdf(x, dist)),
    "pdf": ("pdf.csv", lambda x, dist, n: doppler_pdf(x, dist)),
    "single": ("order_stats_single_n{n}.csv", lambda x, dist, n: doppler_cdf(x, dist)),
    "min": ("order_stats_min_n{n}.csv", lambda x, dist, n: min_doppler_cdf(x, dist, n)),
    "max": ("order_stats_max_n{n}.csv", lambda x, dist, n: max_doppler_cdf(x, dist, n)),
}

# Figure presets as rows of (label, h_km, rho_km, r_hat_km).
_FIGURES = {
    "fig2": [(f"fig2_rho{rho:03d}km", 600, rho, 2 * rho) for rho in (50, 100, 150)],
    "fig3": [(f"fig3_rhat{r_hat:03d}km", 600, 100, r_hat) for r_hat in (0, 100, 200, 300)],
    "fig4": [
        (f"fig4_h{h:04d}km_rho{rho:03d}km", h, rho, 2 * rho)
        for h in (600, 1200)
        for rho in (100, 200)
    ],
}


class ConfigParseError(Exception):
    """Malformed config text: bad syntax, unknown key, or unreadable value."""


class ConfigValidationError(Exception):
    """Config text parsed but the values violate a model invariant."""


def parse_config(path) -> ScenarioConfig:
    """Read a key = value config file and resolve it to an SI scenario.

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
        line = raw_line.partition("#")[0].strip()
        if not line:
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
        try:
            values[key] = float(raw_value)
        except ValueError:
            raise ConfigParseError(
                f"line {lineno}: value for '{key}' is not a number: '{raw_value}'"
            ) from None
    return _resolve(values)


def _resolve(values: dict[str, float]) -> ScenarioConfig:
    """Apply the defaults and units; ScenarioConfig and SatelliteConfig
    check the resulting values."""
    if "h_km" not in values:
        raise ConfigValidationError("config must set h_km (satellite altitude)")
    h_km = values["h_km"]
    if not h_km > 0.0:
        raise ConfigValidationError(f"h_km must be positive, got {h_km}")
    merged = {**_DEFAULTS, **values}
    if "omega_s_rad_s" not in merged:
        if h_km not in _OMEGA_S_BY_H_KM:
            raise ConfigValidationError(
                f"omega_s_rad_s is required for altitude {h_km} km "
                f"(built-in values exist only for 600 and 1200 km)"
            )
        merged["omega_s_rad_s"] = _OMEGA_S_BY_H_KM[h_km]
    merged.setdefault("r_hat_km", 2.0 * merged["rho_km"])
    counts = {key: merged[key] for key in _INT_KEYS if key in merged}
    try:
        satellite = SatelliteConfig(
            f_c=merged["fc_ghz"] * 1e9,
            h=h_km * 1e3,
            omega_s=merged["omega_s_rad_s"],
            omega_e=merged["omega_e_rad_s"],
            theta_i=merged["theta_i_rad"],
            r_e=merged["r_e_km"] * 1e3,
        )
        return ScenarioConfig(
            cfg=satellite,
            rho=merged["rho_km"] * 1e3,
            r_hat=merged["r_hat_km"] * 1e3,
            **counts,
        )
    except ValueError as exc:
        raise ConfigValidationError(str(exc)) from exc


def default_config() -> ScenarioConfig:
    """Scenario for the documented defaults at 600 km."""
    return _resolve({"h_km": 600.0})


def cmd_curve(sc: ScenarioConfig, out_dir: Path, which: str, n: int) -> Path:
    """Write one closed-form curve on a grid over the magnitude support.

    which is cdf or pdf for the single-user law, or single, min or max for
    the CDF of that statistic over n users. Returns the CSV path.
    """
    if which not in _CURVES:
        raise ConfigValidationError(
            f"curve must be one of {', '.join(_CURVES)}, got '{which}'"
        )
    if not (_integral(n) and n >= 1):
        raise ConfigValidationError(f"order statistic needs n >= 1, got {n}")
    name, law = _CURVES[which]
    dist = sc.law
    grid = np.linspace(0.0, doppler_support_max(dist), sc.grid_points)
    out = out_dir / name.format(n=n)
    lines = ["x_hz,value"]
    lines.extend(f"{x:.9g},{v:.9g}" for x, v in zip(grid, np.asarray(law(grid, dist, n))))
    out.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return out


def _write_report(report, csv_path: Path, summary_path: Path) -> tuple[Path, Path]:
    write_report_csv(report, csv_path)
    write_summary(report, summary_path)
    return csv_path, summary_path


def cmd_simulate(sc: ScenarioConfig, out_dir: Path, threads: int = 1) -> tuple[Path, Path]:
    """Run the Monte Carlo comparison; returns (report CSV, summary) paths."""
    report = run_scenario(sc, threads=threads)
    return _write_report(
        report, out_dir / "simulate_report.csv", out_dir / "simulate_summary.txt"
    )


def figure_scenarios(preset: str, sc: ScenarioConfig) -> list[tuple[str, ScenarioConfig]]:
    """Labelled scenarios of one figure preset.

    fig2 sweeps the cluster radius (50/100/150 km, offset 2*rho, 600 km);
    fig3 sweeps the centre offset (0/100/200/300 km at rho = 100 km, 600 km);
    fig4 sweeps altitude and radius (600/1200 km x 100/200 km, offset 2*rho).
    Each keeps the scenario's carrier, Earth, counts and seed.
    """
    if preset not in _FIGURES:
        raise ConfigValidationError(f"unknown preset '{preset}' (use fig2, fig3 or fig4)")
    return [
        (
            label,
            replace(
                sc,
                cfg=replace(sc.cfg, h=h_km * 1e3, omega_s=_OMEGA_S_BY_H_KM[h_km]),
                rho=rho_km * 1e3,
                r_hat=r_hat_km * 1e3,
            ),
        )
        for label, h_km, rho_km, r_hat_km in _FIGURES[preset]
    ]


def cmd_figure(preset: str, sc: ScenarioConfig, out_dir: Path, threads: int = 1) -> list[Path]:
    """Run one preset sweep; returns the written paths.

    All scenarios of a sweep share one grid spanning the widest support, so
    rows at equal x are comparable across the sweep's files.
    """
    scenarios = figure_scenarios(preset, sc)
    x_top = max(doppler_support_max(s.law) for _, s in scenarios)
    written: list[Path] = []
    for label, scenario in scenarios:
        report = run_scenario(scenario, threads=threads, x_max=x_top)
        written += _write_report(
            report, out_dir / f"{label}.csv", out_dir / f"{label}_summary.txt"
        )
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leodoppler",
        description="Doppler magnitude statistics for clustered LEO ground users",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options of every subcommand, then those of the two that sample.
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", type=Path, help="key = value config file")
    base.add_argument("--out", type=Path, default=Path("."), help="output directory (default: .)")
    sampling = argparse.ArgumentParser(add_help=False, parents=[base])
    sampling.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads, at most one per sampling chunk (default: 1)",
    )
    cdf = sub.add_parser("cdf", parents=[base], help="write the magnitude CDF curve")
    cdf.set_defaults(which="cdf", n=None)
    pdf = sub.add_parser("pdf", parents=[base], help="write the magnitude density curve")
    pdf.set_defaults(which="pdf", n=None)
    stats = sub.add_parser("order-stats", parents=[base], help="write an order-statistic CDF curve")
    stats.add_argument(
        "--which",
        choices=("single", "min", "max"),
        default="single",
        help="which statistic to evaluate (default: single)",
    )
    stats.add_argument("--n", type=int, help="users per cluster (default: config n_users)")
    sub.add_parser("simulate", parents=[sampling], help="run the Monte Carlo comparison")
    figure = sub.add_parser("figure", parents=[sampling], help="run a bundled parameter sweep")
    figure.add_argument(
        "--preset", choices=tuple(_FIGURES), required=True, help="which sweep to run"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sc = parse_config(args.config) if args.config is not None else default_config()
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            written = list(cmd_simulate(sc, args.out, threads=args.threads))
        elif args.command == "figure":
            written = cmd_figure(args.preset, sc, args.out, threads=args.threads)
        else:
            n = sc.n_users if args.n is None else args.n
            written = [cmd_curve(sc, args.out, args.which, n)]
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

"""Config parsing, subcommand outputs, and exit codes of the CLI."""
from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leodoppler.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    VALID_KEYS,
    ConfigParseError,
    ConfigValidationError,
    cmd_curve,
    cmd_figure,
    cmd_simulate,
    default_config,
    figure_scenarios,
    main,
    parse_config,
)


def _write_config(tmp_path, text: str):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def _load_curve(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


# ------------------------------------------------------------- parsing ----

def test_parse_minimal_config_fills_documented_defaults(tmp_path):
    sc = parse_config(_write_config(tmp_path, "h_km = 600\n"))
    sat = sc.cfg
    assert sat.f_c == 2e9
    assert sat.h == 600e3
    assert sat.omega_s == 1.1e-3
    assert sat.omega_e == 7.27e-5
    assert sat.theta_i == 0.0
    assert sat.r_e == 6_371_000.0
    assert sc.rho == 100e3
    assert sc.r_hat == 200e3
    assert (sc.n_users, sc.trials, sc.seed, sc.grid_points) == (8, 1250, 1, 512)


def test_parse_config_accepts_comments_and_blank_lines(tmp_path):
    sc = parse_config(
        _write_config(
            tmp_path,
            "# serving scene\n\nh_km = 1200\nrho_km = 150\n  # indented comment\n",
        )
    )
    assert sc.cfg.h == 1200e3
    assert sc.cfg.omega_s == 9.5809e-4
    assert sc.rho == 150e3
    # Default centre offset follows the overridden radius.
    assert sc.r_hat == 300e3


def test_parse_config_explicit_offset_wins(tmp_path):
    sc = parse_config(_write_config(tmp_path, "h_km = 600\nrho_km = 50\nr_hat_km = 0\n"))
    assert sc.rho == 50e3
    assert sc.r_hat == 0.0


def test_parse_config_requires_altitude(tmp_path):
    with pytest.raises(ConfigValidationError, match="h_km"):
        parse_config(_write_config(tmp_path, "rho_km = 100\n"))


def test_parse_config_nonstandard_altitude_needs_orbit_rate(tmp_path):
    with pytest.raises(ConfigValidationError, match="omega_s"):
        parse_config(_write_config(tmp_path, "h_km = 800\n"))
    sc = parse_config(_write_config(tmp_path, "h_km = 800\nomega_s_rad_s = 1.04e-3\n"))
    assert sc.cfg.omega_s == 1.04e-3


def test_parse_config_rejects_unknown_key_with_line_number(tmp_path):
    path = _write_config(tmp_path, "h_km = 600\naltitude_km = 600\n")
    with pytest.raises(ConfigParseError, match=r"line 2.*altitude_km"):
        parse_config(path)


def test_parse_config_rejects_duplicate_key(tmp_path):
    path = _write_config(tmp_path, "h_km = 600\nh_km = 1200\n")
    with pytest.raises(ConfigParseError, match=r"line 2.*twice"):
        parse_config(path)


def test_parse_config_rejects_non_numeric_value(tmp_path):
    path = _write_config(tmp_path, "h_km = six hundred\n")
    with pytest.raises(ConfigParseError, match="not a number"):
        parse_config(path)


def test_parse_config_rejects_bare_line(tmp_path):
    path = _write_config(tmp_path, "h_km\n")
    with pytest.raises(ConfigParseError, match="key = value"):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigParseError, match="cannot read"):
        parse_config(tmp_path / "nope.cfg")


def test_parse_config_validates_physics(tmp_path):
    with pytest.raises(ConfigValidationError):
        parse_config(_write_config(tmp_path, "h_km = -5\n"))
    with pytest.raises(ConfigValidationError):
        parse_config(_write_config(tmp_path, "h_km = 600\nrho_km = 0\n"))
    with pytest.raises(ConfigValidationError, match="integer"):
        parse_config(_write_config(tmp_path, "h_km = 600\nn_users = 2.5\n"))
    with pytest.raises(ConfigValidationError, match="grid_points"):
        parse_config(_write_config(tmp_path, "h_km = 600\ngrid_points = 1\n"))


def test_default_config_matches_minimal_file(tmp_path):
    from_file = parse_config(_write_config(tmp_path, "h_km = 600\n"))
    assert default_config() == from_file
    assert default_config(1200.0).cfg.omega_s == 9.5809e-4


# ---------------------------------------------------------- subcommands ----

def test_cmd_cdf_curve(tmp_path):
    sc = parse_config(_write_config(tmp_path, "h_km = 600\nr_hat_km = 0\n"))
    out = cmd_curve(sc, tmp_path, "cdf", sc.n_users)
    assert out.name == "cdf.csv"
    data = _load_curve(out)
    assert data.shape == (512, 2)
    assert data[0, 1] == 0.0
    assert data[-1, 1] == 1.0
    assert np.all(np.diff(data[:, 1]) >= 0.0)
    # Frozen overhead spot value, reached through interpolation of the grid.
    assert np.interp(5e3, data[:, 0], data[:, 1]) == pytest.approx(
        0.30515869351222263, abs=1e-3
    )


def test_cmd_pdf_curve_integrates_to_one(tmp_path):
    sc = parse_config(_write_config(tmp_path, "h_km = 600\nr_hat_km = 0\n"))
    data = _load_curve(cmd_curve(sc, tmp_path, "pdf", sc.n_users))
    assert data.shape == (512, 2)
    assert np.all(data[:, 1] >= 0.0)
    assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=5e-3)


def test_cmd_order_stats_single_equals_cdf(tmp_path):
    sc = default_config()
    cdf_path = cmd_curve(sc, tmp_path, "cdf", 8)
    single_path = cmd_curve(sc, tmp_path, "single", 8)
    assert single_path.name == "order_stats_single_n8.csv"
    assert single_path.read_bytes() == cdf_path.read_bytes()


def test_cmd_order_stats_min_max(tmp_path):
    sc = default_config()
    min_curve = _load_curve(cmd_curve(sc, tmp_path, "min", 4))
    max_curve = _load_curve(cmd_curve(sc, tmp_path, "max", 4))
    single = _load_curve(cmd_curve(sc, tmp_path, "cdf", 4))
    assert np.all(min_curve[:, 1] >= single[:, 1] - 1e-14)
    assert np.all(max_curve[:, 1] <= single[:, 1] + 1e-14)


def test_cmd_order_stats_validation(tmp_path):
    sc = default_config()
    with pytest.raises(ConfigValidationError):
        cmd_curve(sc, tmp_path, "median", 4)
    with pytest.raises(ConfigValidationError):
        cmd_curve(sc, tmp_path, "min", 0)
    with pytest.raises(ConfigValidationError):
        cmd_curve(sc, tmp_path, "single", 0)


# SHA-256 of each curve file, captured before cdf, pdf and order-stats were
# merged into one curve writer. The benchmark's reference pins only the
# default config and --which max.
_CURVE_GOLDENS = {
    "h_km = 1200\nrho_km = 150\nfc_ghz = 20\ngrid_points = 300\n": {
        "cdf.csv": "dc0f6fb2e7959adfb4ed157713c616ca7838ff9af1fa3f1fac97ae98ca7ba307",
        "pdf.csv": "0b9cde61c21c527d942df5a05848262e92180c91cae6a26fc969a681319b73c4",
        "order_stats_single_n5.csv":
            "dc0f6fb2e7959adfb4ed157713c616ca7838ff9af1fa3f1fac97ae98ca7ba307",
        "order_stats_min_n5.csv":
            "867b231d683578c7c60e02a41d63f49a23d94389193a2b511f93e0c09433b417",
        "order_stats_max_n5.csv":
            "278ddd807a169ca21c4d3604671762771c7a1548d421692e8a8e062aa3834000",
    },
    "h_km = 600\nr_hat_km = 0\n": {
        "cdf.csv": "7fd97f0473e748810bb1a7bf0d94703ccefd661f26b25ec01f68a2d576b5f06c",
        "pdf.csv": "259ff1cabb7ffd97d2a7ac054d607e2cbbc5fdc2fa46789ba904de0c29efe7c1",
        "order_stats_single_n5.csv":
            "7fd97f0473e748810bb1a7bf0d94703ccefd661f26b25ec01f68a2d576b5f06c",
        "order_stats_min_n5.csv":
            "c4dfcb51a720b76ebe94f7af54037617ba5dcbb3bcd3237e375d92f57cb83443",
        "order_stats_max_n5.csv":
            "3d9f4da7d1efed2511ba6a76f7812ee5ce8c42fc68f08bf963df38796643e206",
    },
}


@pytest.mark.parametrize("text", list(_CURVE_GOLDENS))
def test_curve_commands_match_golden_hashes(tmp_path, capsys, text):
    cfg = _write_config(tmp_path, text)
    commands = [["cdf"], ["pdf"]] + [
        ["order-stats", "--which", which, "--n", "5"] for which in ("single", "min", "max")
    ]
    for command in commands:
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    written = [Path(line) for line in capsys.readouterr().out.splitlines()]
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert hashes == _CURVE_GOLDENS[text]


def test_cmd_simulate_outputs(tmp_path):
    csv_path, summary_path = cmd_simulate(default_config(), tmp_path)
    assert csv_path.name == "simulate_report.csv"
    assert summary_path.name == "simulate_summary.txt"
    data = _load_curve(csv_path)
    assert data.shape == (512, 4)
    summary = dict(
        line.split("=", 1)
        for line in summary_path.read_text(encoding="ascii").splitlines()
    )
    assert summary["violations"] == "0"
    assert summary["excluded"] == "0"
    assert float(summary["ks_bound"]) < 0.05


def test_cmd_simulate_reruns_byte_identical(tmp_path):
    sc = default_config()
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    first = cmd_simulate(sc, d1)
    second = cmd_simulate(sc, d2, threads=4)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------- figures ----

def test_figure_scenarios_fig2():
    pairs = figure_scenarios("fig2", default_config())
    assert [label for label, _ in pairs] == [
        "fig2_rho050km", "fig2_rho100km", "fig2_rho150km",
    ]
    for (_, sc), rho in zip(pairs, (50e3, 100e3, 150e3)):
        assert sc.rho == rho
        assert sc.r_hat == 2.0 * rho
        assert sc.cfg.h == 600e3


def test_figure_scenarios_fig3():
    pairs = figure_scenarios("fig3", default_config())
    assert [label for label, _ in pairs] == [
        "fig3_rhat000km", "fig3_rhat100km", "fig3_rhat200km", "fig3_rhat300km",
    ]
    assert all(sc.rho == 100e3 for _, sc in pairs)


def test_figure_scenarios_fig4():
    pairs = figure_scenarios("fig4", default_config())
    assert [label for label, _ in pairs] == [
        "fig4_h0600km_rho100km", "fig4_h0600km_rho200km",
        "fig4_h1200km_rho100km", "fig4_h1200km_rho200km",
    ]
    assert pairs[2][1].cfg.omega_s == 9.5809e-4


def test_figure_scenarios_rejects_unknown_preset():
    with pytest.raises(ConfigValidationError):
        figure_scenarios("fig9", default_config())


def test_cmd_figure_shares_one_grid(tmp_path):
    sc = parse_config(
        _write_config(tmp_path, "h_km = 600\ntrials = 50\ngrid_points = 128\n")
    )
    written = cmd_figure("fig3", sc, tmp_path)
    csvs = [p for p in written if p.suffix == ".csv"]
    assert len(csvs) == 4 and len(written) == 8
    curves = [_load_curve(p) for p in csvs]
    for other in curves[1:]:
        assert np.array_equal(curves[0][:, 0], other[:, 0])
    # Closer sub-satellite point concentrates the law at small magnitudes.
    for near, far in zip(curves, curves[1:]):
        assert np.all(near[:, 1] >= far[:, 1] - 1e-14)


# ------------------------------------------------------------ main/exit ----

def test_main_simulate_ok(tmp_path, capsys):
    cfg = _write_config(tmp_path, "h_km = 600\ntrials = 100\ngrid_points = 64\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert (tmp_path / "out" / "simulate_report.csv").exists()
    assert printed[0].endswith("simulate_report.csv")


def test_main_cdf_without_config_uses_defaults(tmp_path, capsys):
    code = main(["cdf", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "cdf.csv").exists()


def test_main_parse_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, "h_km = 600\nbogus = 1\n")
    code = main(["cdf", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_PARSE
    assert "config error" in capsys.readouterr().err


def test_main_non_utf8_config_is_parse_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe")
    code = main(["cdf", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_PARSE
    assert "config error" in capsys.readouterr().err


def test_main_validation_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, "h_km = -5\n")
    code = main(["cdf", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cdf", "pdf", "order-stats", "simulate"])
@pytest.mark.parametrize(
    "line, message",
    [
        ("n_users = inf", "n_users must be an integer, got inf"),
        ("n_users = nan", "n_users must be an integer, got nan"),
        ("n_users = 1e30", "n_users * trials must be at most"),
        ("trials = -inf", "trials must be an integer, got -inf"),
        ("seed = inf", "seed must be an integer, got inf"),
        ("grid_points = 1e7", "grid_points must be 2 to 1000000"),
        ("r_hat_km = 5000", "tangent-plane validity radius"),
        # Scales at which the laws would overflow, or underflow to NaN.
        ("fc_ghz = 1e150", "Doppler scale A must be at least"),
        ("h_km = 1e200\nomega_s_rad_s = 1e-3", "altitude must be at least"),
        ("h_km = 1e152\nomega_s_rad_s = 1e-3", "altitude must be at least"),
        ("r_e_km = 1e152", "Earth radius must be at least"),
        ("rho_km = 1e-300", "cluster radius must be at least"),
    ],
)
def test_main_rejects_oversized_and_non_finite_values(
    tmp_path, capsys, no_sampling, line, message, command
):
    # Every command checks the one config type, so the curve commands reject
    # what simulate rejects.
    text = line if line.startswith("h_km") else f"h_km = 600\n{line}"
    cfg = _write_config(tmp_path, f"{text}\n")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_main_caps_threads_at_chunk_count(tmp_path, capsys, pool_sizes):
    code = main(["simulate", "--threads", "1000000", "--out", str(tmp_path / "many")])
    assert code == EXIT_OK
    assert pool_sizes == [64]
    assert main(["simulate", "--out", str(tmp_path / "one")]) == EXIT_OK
    for name in ("simulate_report.csv", "simulate_summary.txt"):
        assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_main_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    code = main(["cdf", "--out", str(blocker)])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


_FUZZ_VALUES = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "+inf", "0", "-0", "0.0", "-0.0", "1e308", "-1e308",
    "5e-324", "-5e-324", "1", "2", "8", "600", "1200", "100", "1e3", "-1", "1e150", "1e200",
    "1e-300",
    "abc", "", "1,5", "0x10", "1_000", "nan(1)", "infinity", "= 3", "#",
])
_FUZZ_KEYS = st.sampled_from(sorted(VALID_KEYS)) | st.sampled_from(
    ["", "H_KM", "h_km x", "#h_km", "bogus", "n_users=", "=", "rho km"]
)
_FUZZ_LINES = st.one_of(
    st.tuples(_FUZZ_KEYS, _FUZZ_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["", "# comment", "h_km", "===", "h_km = 600 = 600", "\t"]),
    st.text(max_size=12),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lines=st.lists(_FUZZ_LINES, max_size=8),
    command=st.sampled_from([["cdf"], ["pdf"], ["order-stats"],
                             ["order-stats", "--which", "min"],
                             ["order-stats", "--which", "max", "--n", "3"]]),
)
def test_main_exits_cleanly_on_fuzzed_config(lines, command):
    # No command here samples users, and every accepted grid_points value
    # is at most 1200, so each example stays cheap.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([*command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_IO)


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "leodoppler", "cdf", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "cdf.csv").exists()


def test_cli_import_leaves_out_the_thread_pool():
    # Only a multi-threaded run_scenario needs concurrent.futures, which
    # also imports logging; cdf, pdf and order-stats should not pay for it.
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, leodoppler.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

"""End-to-end acceptance gates for the package.

Each test prints one PASS/FAIL line (run with -s or -rA to see them all)
and checks one shipping requirement at its stated tolerance, including the
runtime budgets. Statistical gates run on frozen seeds that were verified
to pass with margin, so reruns are deterministic.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from leodoppler.cli import cmd_simulate, default_config, figure_scenarios
from leodoppler.distributions import (
    DiskDistanceDistribution,
    DopplerMagnitudeDistribution,
    disk_distance_cdf,
    disk_distance_pdf,
    doppler_cdf,
    doppler_pdf,
    doppler_quantile,
    doppler_support_max,
    doppler_support_min,
    max_doppler_cdf,
    min_doppler_cdf,
    overhead_cdf,
    overhead_pdf,
)
from leodoppler.doppler import (
    PassGeometry,
    doppler_bound,
    doppler_exact,
    epsilon_accuracy_offsets,
    theta_of_alpha_max,
)
from leodoppler.geometry import (
    SPEED_OF_LIGHT_M_S,
    SatelliteConfig,
    angular_velocity_ecf,
    central_angle,
    elevation_from_central_angle,
    orbital_radius,
    slant_range,
)
from leodoppler.montecarlo import (
    EmpiricalCdf,
    ScenarioConfig,
    ks_distance,
    run_scenario,
)

CFG600 = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3)
CFG1200 = SatelliteConfig(f_c=2e9, h=1200e3, omega_s=9.5809e-4)


def _verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_envelope_sampling_matches_magnitude_law():
    # Empirical CDF of the planar envelope over 1e5 uniform-disk users vs
    # the closed form: KS * sqrt(n) < 1.63, three seeds x three geometries
    # (sub-satellite point at the centre, inside, and outside the disk).
    start = time.perf_counter()
    worst = 0.0
    for seed in (1, 2, 3):
        for r_hat in (0.0, 50e3, 200e3):
            scenario = ScenarioConfig(
                cfg=CFG600, rho=100e3, r_hat=r_hat, n_users=8, trials=12_500, seed=seed,
                grid_points=64,
            )
            report = run_scenario(scenario)
            worst = max(worst, report.ks_bound * math.sqrt(100_000))
    elapsed = time.perf_counter() - start
    _verdict(
        worst < 1.63 and elapsed < 10.0,
        f"envelope sampling matches magnitude law "
        f"(worst KS*sqrt(n) {worst:.3f} < 1.63, {elapsed:.1f} s < 10 s)",
    )


def test_disk_distance_law_matches_sampling():
    # Distance-to-point law on the unit disk: KS < 0.004 at 1e5 samples for
    # offset/radius in {0, 0.5, 2}, and the analytic lens value at r = 2
    # (radius 1, offset 2) within 3 standard errors of a 1e7 estimate.
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for offset in (0.0, 0.5, 2.0):
        radii = np.sqrt(rng.random(100_000))
        angles = 2.0 * math.pi * rng.random(100_000)
        d = np.hypot(radii * np.cos(angles) - offset, radii * np.sin(angles))
        law = DiskDistanceDistribution(radius=1.0, offset=offset)
        ks = ks_distance(
            EmpiricalCdf.from_samples(d), lambda r: disk_distance_cdf(r, law)
        )
        worst = max(worst, ks)

    rng = np.random.default_rng(20260816)
    radii = np.sqrt(rng.random(10_000_000))
    angles = 2.0 * math.pi * rng.random(10_000_000)
    p_hat = float(
        np.mean(np.hypot(radii * np.cos(angles) - 2.0, radii * np.sin(angles)) <= 2.0)
    )
    three_se = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / 1e7)
    analytic = disk_distance_cdf(2.0, DiskDistanceDistribution(radius=1.0, offset=2.0))
    gap = abs(analytic - p_hat)
    elapsed = time.perf_counter() - start
    _verdict(
        worst < 0.004 and gap < three_se and elapsed < 30.0,
        f"disk distance law matches sampling (worst KS {worst:.5f} < 0.004, "
        f"lens value gap {gap:.2e} < 3 SE {three_se:.2e}, {elapsed:.1f} s < 30 s)",
    )


def test_normalization_and_inverse_consistency():
    # Density integrates to 1 within 1e-6; finite differences of the CDF
    # match the density within 1e-6 off breakpoints; quantile round-trips
    # within 1e-6 on a 99-point probability grid.
    start = time.perf_counter()
    ok = True
    geometries = ((100e3, 0.0), (100e3, 50e3), (100e3, 250e3))
    for rho, r_hat in geometries:
        dist = DopplerMagnitudeDistribution.for_satellite(CFG600, rho, r_hat)
        lo, hi = doppler_support_min(dist), doppler_support_max(dist)
        pts = []
        z_kink = abs(rho - r_hat)
        if z_kink > 0.0:
            pts.append(dist.a * z_kink / math.hypot(dist.h, z_kink))
        total, _ = quad(lambda x: doppler_pdf(x, dist), lo, hi, points=pts, limit=300)
        ok &= abs(total - 1.0) < 1e-6

        step = 0.5
        breaks = {lo, hi, *pts}
        for x in np.linspace(lo + 5.0, hi - 5.0, 40):
            x = float(x)
            if any(abs(x - b) < 25.0 for b in breaks):
                continue
            fd = (doppler_cdf(x + step, dist) - doppler_cdf(x - step, dist)) / (
                2.0 * step
            )
            ok &= abs(doppler_pdf(x, dist) - fd) < 1e-6

        p_grid = np.linspace(0.01, 0.99, 99)
        back = np.asarray(doppler_cdf(doppler_quantile(p_grid, dist), dist))
        ok &= bool(np.max(np.abs(back - p_grid)) < 1e-6)
    elapsed = time.perf_counter() - start
    _verdict(
        ok and elapsed < 5.0,
        f"normalization, derivative and quantile consistency within 1e-6 "
        f"({elapsed:.1f} s < 5 s)",
    )


def test_envelope_dominance():
    # Exact shift never exceeds the envelope at the matched instantaneous
    # elevation over 1e4 random pass geometries, and the distribution-level
    # dominance counter stays zero across the cluster-radius preset.
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    r_o = orbital_radius(CFG600)
    k = CFG600.r_e / r_o
    omega = angular_velocity_ecf(CFG600)
    violations = 0
    for _ in range(10_000):
        alpha_max = float(rng.uniform(0.01, math.pi / 2))
        geometry = PassGeometry.from_max_elevation(alpha_max, CFG600)
        dt_limit = math.acos(min(k / geometry.theta, 1.0)) / omega
        dt = float(rng.uniform(-dt_limit, dt_limit))
        gamma = central_angle(dt, geometry.theta, CFG600)
        alpha = elevation_from_central_angle(gamma, CFG600)
        if abs(doppler_exact(dt, geometry, CFG600)) > doppler_bound(alpha, CFG600):
            violations += 1

    preset_violations = 0
    for _, scenario in figure_scenarios("fig2", replace(default_config(), grid_points=128)):
        preset_violations += run_scenario(scenario).dominance_violations
    elapsed = time.perf_counter() - start
    _verdict(
        violations == 0 and preset_violations == 0 and elapsed < 10.0,
        f"envelope dominates exact shift ({violations} pointwise and "
        f"{preset_violations} distribution-level violations, {elapsed:.1f} s < 10 s)",
    )


def test_overhead_equivalence():
    # The general law at zero centre offset equals the dedicated overhead
    # form within 1e-12 on a 512-point grid, and the support endpoint equals
    # A / sqrt(1 + h^2/rho^2) to the last bit.
    dist = DopplerMagnitudeDistribution.for_satellite(CFG600, 100e3, 0.0)
    top = doppler_support_max(dist)
    grid = np.linspace(0.0, top, 512)
    cdf_gap = float(
        np.max(np.abs(np.asarray(doppler_cdf(grid, dist)) - np.asarray(overhead_cdf(grid, dist))))
    )
    inner = np.linspace(0.0, top * (1.0 - 1e-9), 512)
    pdf_gap = float(
        np.max(np.abs(np.asarray(doppler_pdf(inner, dist)) - np.asarray(overhead_pdf(inner, dist))))
    )
    endpoint = dist.a / math.sqrt(1.0 + (dist.h / dist.rho) ** 2)
    endpoint_gap = abs(top - endpoint)
    _verdict(
        cdf_gap < 1e-12 and pdf_gap < 1e-12 and endpoint_gap <= np.spacing(top),
        f"overhead form equals general law (CDF gap {cdf_gap:.1e}, PDF gap "
        f"{pdf_gap:.1e} < 1e-12, endpoint within one ulp)",
    )


def test_altitude_quadrupling():
    # Doubling the altitude from 600 to 1200 km more than quadruples the
    # overhead CDF at x = 0.01 * A(600 km); the small-x limit is about 4.39.
    rho = 100e3
    d600 = DopplerMagnitudeDistribution.for_satellite(CFG600, rho, 0.0)
    d1200 = DopplerMagnitudeDistribution.for_satellite(CFG1200, rho, 0.0)
    x_probe = 0.01 * d600.a
    ratio = overhead_cdf(x_probe, d1200) / overhead_cdf(x_probe, d600)
    _verdict(
        4.0 < ratio < 4.8,
        f"altitude doubling quadruples low-magnitude mass (ratio {ratio:.3f})",
    )


def test_preset_trend_orderings():
    # Analytic curves of the bundled sweeps keep their documented pointwise
    # orderings: larger clusters and larger centre offsets shift mass to
    # larger magnitudes, higher altitude shifts it back, including for the
    # scaled pair (1200 km, 200 km) vs (600 km, 100 km).
    start = time.perf_counter()
    sc = default_config()

    def curves(preset: str) -> dict[str, np.ndarray]:
        scenarios = figure_scenarios(preset, sc)
        dists = {
            label: DopplerMagnitudeDistribution.for_satellite(s.cfg, s.rho, s.r_hat)
            for label, s in scenarios
        }
        top = max(doppler_support_max(d) for d in dists.values())
        grid = np.linspace(0.0, top, 512)
        return {label: np.asarray(doppler_cdf(grid, d)) for label, d in dists.items()}

    ok = True
    fig2 = curves("fig2")
    ok &= bool(np.all(fig2["fig2_rho050km"] >= fig2["fig2_rho100km"] - 1e-14))
    ok &= bool(np.all(fig2["fig2_rho100km"] >= fig2["fig2_rho150km"] - 1e-14))

    fig3 = curves("fig3")
    order = ["fig3_rhat000km", "fig3_rhat100km", "fig3_rhat200km", "fig3_rhat300km"]
    for near, far in zip(order, order[1:]):
        ok &= bool(np.all(fig3[near] >= fig3[far] - 1e-14))

    fig4 = curves("fig4")
    for rho_tag in ("rho100km", "rho200km"):
        ok &= bool(
            np.all(fig4[f"fig4_h1200km_{rho_tag}"] >= fig4[f"fig4_h0600km_{rho_tag}"] - 1e-14)
        )
    ok &= bool(
        np.all(fig4["fig4_h1200km_rho200km"] >= fig4["fig4_h0600km_rho100km"] - 1e-14)
    )
    elapsed = time.perf_counter() - start
    _verdict(
        ok and elapsed < 60.0,
        f"preset sweeps keep their trend orderings at every grid point "
        f"({elapsed:.1f} s < 60 s)",
    )


def test_accuracy_window_matches_scan():
    # Closed-form window offsets for (epsilon=0.01, alpha_max=pi/4, 600 km)
    # vs a scan of the normalized envelope error built from the geometry
    # primitives; both crossings within 1 s.
    epsilon = 0.01
    theta = theta_of_alpha_max(math.pi / 4, CFG600)
    geometry = PassGeometry(theta)
    r_o = orbital_radius(CFG600)
    omega = angular_velocity_ecf(CFG600)
    scale = CFG600.f_c * CFG600.r_e * omega / SPEED_OF_LIGHT_M_S

    def error_of(dt: float) -> float:
        gamma = central_angle(dt, theta, CFG600)
        s = slant_range(dt, theta, CFG600)
        envelope = scale * r_o * math.sin(gamma) / s
        return 1.0 - abs(doppler_exact(dt, geometry, CFG600)) / envelope

    def scan_crossing(lo: float, hi: float, falling: bool) -> float:
        # Bisect the dt where the error crosses epsilon on a monotone leg.
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (error_of(mid) > epsilon) == falling:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    window = epsilon_accuracy_offsets(epsilon, theta, CFG600)
    assert window is not None
    t_near, t_far = window
    half_period = math.pi / omega
    # The error falls to its mid-pass-phase minimum, then rises again.
    scan_near = scan_crossing(1.0, 0.5 * half_period, falling=True)
    scan_far = scan_crossing(0.5 * half_period, half_period - 1.0, falling=False)
    near_gap = abs(t_near - scan_near)
    far_gap = abs(t_far - scan_far)
    _verdict(
        near_gap < 1.0 and far_gap < 1.0,
        f"accuracy window matches scanned error crossings "
        f"(near gap {near_gap:.2e} s, far gap {far_gap:.2e} s < 1 s)",
    )


def test_order_statistics_sampling():
    # Minimum and maximum magnitude over 8 users: formula CDFs vs
    # inverse-transform sampling across 1e5 trials, KS < 0.006.
    dist = DopplerMagnitudeDistribution.for_satellite(CFG600, 100e3, 200e3)
    rng = np.random.default_rng(11)
    u = rng.random((100_000, 8))
    samples = np.asarray(doppler_quantile(u.ravel(), dist)).reshape(u.shape)
    ks_min = ks_distance(
        EmpiricalCdf.from_samples(samples.min(axis=1)),
        lambda x: min_doppler_cdf(x, dist, 8),
    )
    ks_max = ks_distance(
        EmpiricalCdf.from_samples(samples.max(axis=1)),
        lambda x: max_doppler_cdf(x, dist, 8),
    )
    _verdict(
        ks_min < 0.006 and ks_max < 0.006,
        f"order statistic laws match sampling (KS min {ks_min:.4f}, "
        f"max {ks_max:.4f} < 0.006)",
    )


def test_simulation_determinism(tmp_path):
    # Identical seeds give byte-identical simulate outputs across reruns
    # and across thread counts 1 and 4.
    sc = default_config()
    outputs = []
    for tag, threads in (("first", 1), ("second", 1), ("threaded", 4)):
        out_dir = tmp_path / tag
        out_dir.mkdir()
        outputs.append(tuple(p.read_bytes() for p in cmd_simulate(sc, out_dir, threads)))
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(ok, "simulate outputs byte-identical across reruns and thread counts")

"""Closed-form Doppler magnitude law and the disk-distance law under it.

Oracles: the lens CDF value is frozen from an independent circle-circle
intersection area formula cross-checked by 1e7-sample Monte Carlo; Doppler
spot values come from the overhead closed form written inline; densities
are cross-checked against finite differences of the CDFs and quadrature.
"""
from __future__ import annotations

import inspect
import math
import threading
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from leodoppler.distributions import (
    DiskDistanceDistribution,
    DopplerMagnitudeDistribution,
    _magnitude_at_distance,
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
    param_A,
)
from leodoppler.geometry import (
    MAX_DOPPLER_SCALE_HZ,
    MAX_LENGTH_M,
    MIN_DOPPLER_SCALE_HZ,
    MIN_LENGTH_M,
    SatelliteConfig,
)

CFG600 = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3)
CFG1200 = SatelliteConfig(f_c=2e9, h=1200e3, omega_s=9.5809e-4)

A600 = 54537.007065067664   # f_c r_o omega_F / c at 600 km
A1200 = 52063.42509123428

# Circle-circle intersection oracle for F_M(2; R=1, offset=2); the 1e7
# Monte Carlo estimate was 0.4466366 +- 1.6e-4.
LENS_F_2_1_2 = 0.4466099187246639


def _dist600(rho: float, r_hat: float) -> DopplerMagnitudeDistribution:
    return DopplerMagnitudeDistribution.for_satellite(CFG600, rho, r_hat)


# ------------------------------------------------------- disk distances ----

def test_disk_cdf_centered_is_quadratic():
    d = DiskDistanceDistribution(radius=1.0, offset=0.0)
    assert disk_distance_cdf(0.5, d) == pytest.approx(0.25, rel=1e-15)
    assert disk_distance_cdf(1.0, d) == pytest.approx(1.0, rel=1e-15)


def test_disk_cdf_saturates_at_far_edge():
    d = DiskDistanceDistribution(radius=1.0, offset=2.0)
    assert disk_distance_cdf(3.0, d) == 1.0
    assert disk_distance_cdf(3.5, d) == 1.0


def test_disk_cdf_zero_below_reachable_range():
    d = DiskDistanceDistribution(radius=1.0, offset=2.0)
    assert disk_distance_cdf(0.0, d) == 0.0
    assert disk_distance_cdf(1.0, d) == 0.0


def test_disk_cdf_frozen_lens_value():
    d = DiskDistanceDistribution(radius=1.0, offset=2.0)
    assert disk_distance_cdf(2.0, d) == pytest.approx(LENS_F_2_1_2, rel=1e-12)


def test_disk_cdf_lens_matches_intersection_area_oracle():
    # Independent oracle: intersection area of the user disk and the ball
    # of radius r around the offset point, via circular segment areas.
    def lens_area_cdf(r: float, R: float, off: float) -> float:
        if r <= off - R:
            return 0.0
        if r >= off + R:
            return 1.0
        if off < R and r <= R - off:
            return (r / R) ** 2
        d1 = (off**2 + r**2 - R**2) / (2.0 * off)
        d2 = off - d1
        area = (
            r**2 * math.acos(d1 / r)
            - d1 * math.sqrt(r**2 - d1**2)
            + R**2 * math.acos(d2 / R)
            - d2 * math.sqrt(R**2 - d2**2)
        )
        return area / (math.pi * R**2)

    rng = np.random.default_rng(12)
    for _ in range(200):
        R = float(rng.uniform(0.5, 3.0))
        off = float(rng.uniform(0.0, 4.0))
        r = float(rng.uniform(0.0, 5.5))
        d = DiskDistanceDistribution(radius=R, offset=off)
        assert disk_distance_cdf(r, d) == pytest.approx(
            lens_area_cdf(r, R, off), rel=1e-9, abs=1e-12
        )


def test_disk_cdf_continuous_at_breakpoints():
    for R, off in ((1.0, 0.4), (1.0, 2.0), (2.5, 2.5)):
        d = DiskDistanceDistribution(radius=R, offset=off)
        for bp in (abs(R - off), R + off):
            if bp <= 0.0:
                continue
            below = disk_distance_cdf(bp * (1.0 - 1e-10), d)
            at = disk_distance_cdf(bp, d)
            above = disk_distance_cdf(bp * (1.0 + 1e-10), d)
            assert abs(at - below) < 1e-9
            assert abs(above - at) < 1e-9


def test_disk_cdf_monotone_between_zero_and_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        R = float(rng.uniform(0.3, 2.0))
        off = float(rng.uniform(0.0, 3.0))
        d = DiskDistanceDistribution(radius=R, offset=off)
        grid = np.linspace(0.0, R + off + 0.5, 400)
        values = disk_distance_cdf(grid, d)
        assert np.all(np.diff(values) >= -1e-14)
        assert np.all((values >= 0.0) & (values <= 1.0))


@settings(max_examples=300, deadline=None)
@given(
    log_radius=st.floats(-3.0, 7.0),
    log_offset=st.floats(-6.0, 7.0),
    t=st.floats(0.0, 1.0),
)
def test_disk_law_on_lens_is_a_valid_distribution(log_radius, log_offset, t):
    # Rounding may carry the lens cosines past [-1, 1] and the lens area
    # ratio past 1 when the offset is tiny next to the radius (e.g.
    # R = 406369.642 m, offset 7.690 m); neither may reject a distance in
    # [|R - offset|, R + offset] or leave [0, 1].
    d = DiskDistanceDistribution(10.0**log_radius, 10.0**log_offset)
    lo, hi = abs(d.radius - d.offset), d.radius + d.offset
    r = np.array([lo + t * (hi - lo), lo, hi, np.nextafter(lo, np.inf)])
    f = disk_distance_cdf(r, d)
    pdf = disk_distance_pdf(r, d)
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.isfinite(pdf) & (pdf >= 0.0))


@settings(max_examples=300, deadline=None)
@given(log_radius=st.floats(0.0, 6.0), log_offset=st.floats(0.0, 6.0))
def test_disk_cdf_is_monotone_and_reaches_one_at_far_edge(log_radius, log_offset):
    # F(R + offset) used to miss 1 in 3 of 2000 such geometries.
    d = DiskDistanceDistribution(10.0**log_radius, 10.0**log_offset)
    lo, hi = abs(d.radius - d.offset), d.radius + d.offset
    r = np.sort(np.concatenate((
        np.linspace(0.0, hi, 1000),
        [np.nextafter(lo, 0.0), lo, np.nextafter(lo, np.inf), np.nextafter(hi, 0.0), 2.0 * hi],
    )))
    f = disk_distance_cdf(r, d)
    assert np.all(np.diff(f) >= 0.0)
    assert disk_distance_cdf(hi, d) == 1.0


@pytest.mark.parametrize(
    "radius, offset",
    [
        (5702.413928964687, 2041.015412915094),
        (433358.4611308371, 7638.280775553612),
        (773627.3088475113, 1.05619348376686),
    ],
)
def test_disk_cdf_lens_starts_at_the_inner_value(radius, offset):
    # Rounding put the lens formula one float above R - offset a few ulps
    # below the inner branch's value at R - offset in these geometries.
    d = DiskDistanceDistribution(radius, offset)
    lo = radius - offset
    assert disk_distance_cdf(np.nextafter(lo, np.inf), d) >= disk_distance_cdf(lo, d)


def test_disk_cdf_rejects_negative_distance():
    d = DiskDistanceDistribution(radius=1.0, offset=0.0)
    with pytest.raises(ValueError):
        disk_distance_cdf(-0.1, d)


def test_disk_pdf_centered_is_linear():
    d = DiskDistanceDistribution(radius=2.0, offset=0.0)
    assert disk_distance_pdf(1.0, d) == pytest.approx(0.5, rel=1e-15)
    assert disk_distance_pdf(2.5, d) == 0.0


def test_disk_pdf_vanishes_outside_lens():
    d = DiskDistanceDistribution(radius=1.0, offset=2.0)
    assert disk_distance_pdf(0.9, d) == 0.0
    assert disk_distance_pdf(3.1, d) == 0.0


def test_disk_pdf_matches_cdf_finite_difference():
    rng = np.random.default_rng(8)
    step = 1e-6
    for _ in range(40):
        R = float(rng.uniform(0.5, 2.0))
        off = float(rng.uniform(0.0, 3.0))
        d = DiskDistanceDistribution(radius=R, offset=off)
        breakpoints = (abs(R - off), R + off)
        for r in rng.uniform(step, R + off, size=20):
            r = float(r)
            if any(abs(r - bp) < 1e-3 for bp in breakpoints):
                continue
            fd = (disk_distance_cdf(r + step, d) - disk_distance_cdf(r - step, d)) / (
                2.0 * step
            )
            assert disk_distance_pdf(r, d) == pytest.approx(fd, abs=1e-6)


def test_disk_pdf_integrates_to_one():
    for R, off in ((1.0, 0.0), (1.0, 0.5), (1.0, 2.0), (2.0, 1.5)):
        d = DiskDistanceDistribution(radius=R, offset=off)
        pts = sorted({abs(R - off), R + off})
        total, err = quad(
            lambda r: disk_distance_pdf(r, d), 0.0, R + off, points=pts, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_disk_distribution_validation():
    with pytest.raises(ValueError):
        DiskDistanceDistribution(radius=0.0, offset=1.0)
    with pytest.raises(ValueError):
        DiskDistanceDistribution(radius=1.0, offset=-0.5)


@pytest.mark.parametrize("radius, offset", [(1e200, 1e200), (2e150, 1.0), (1.0, 2e150)])
def test_disk_distribution_rejects_scales_that_would_overflow(radius, offset):
    # off**2 raised OverflowError inside disk_distance_cdf(1.5e200, ...).
    with pytest.raises(ValueError, match="at most"):
        DiskDistanceDistribution(radius, offset)


def test_disk_law_holds_at_the_largest_accepted_scale():
    d = DiskDistanceDistribution(MAX_LENGTH_M, MAX_LENGTH_M)
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0]) * MAX_LENGTH_M
    f = disk_distance_cdf(r, d)
    assert np.all(np.diff(f) >= 0.0)
    assert f[0] == 0.0 and f[-1] == 1.0
    assert np.all(np.isfinite(disk_distance_pdf(r, d)))


# ------------------------------------------------------- Doppler scale ----

def test_param_a_frozen_values():
    assert param_A(CFG600) == pytest.approx(A600, rel=1e-12)
    assert param_A(CFG1200) == pytest.approx(A1200, rel=1e-12)


def test_param_a_polar_orbit_drops_earth_rate():
    polar = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3, theta_i=math.pi / 2)
    expected = 2e9 * 6971e3 * 1.1e-3 / 299792458.0
    assert param_A(polar) == pytest.approx(expected, rel=1e-12)


def test_support_is_strictly_below_scale():
    for rho, r_hat in ((50e3, 0.0), (100e3, 200e3), (150e3, 300e3)):
        dist = _dist600(rho, r_hat)
        assert doppler_support_max(dist) < dist.a


# ---------------------------------------------------------- magnitude law ----

def test_doppler_cdf_edges():
    dist = _dist600(100e3, 0.0)
    assert doppler_cdf(0.0, dist) == 0.0
    assert doppler_cdf(doppler_support_max(dist), dist) == 1.0
    assert doppler_cdf(dist.a, dist) == 1.0


def test_doppler_cdf_frozen_overhead_spot():
    # Oracle: (h^2/rho^2) x^2 / (A^2 - x^2) evaluated inline.
    dist = _dist600(100e3, 0.0)
    assert doppler_cdf(5e3, dist) == pytest.approx(0.30515869351222263, rel=1e-12)


def test_doppler_cdf_rejects_negative_magnitude():
    with pytest.raises(ValueError):
        doppler_cdf(-1.0, _dist600(100e3, 0.0))


def test_doppler_cdf_monotone_zero_to_one():
    rng = np.random.default_rng(44)
    for _ in range(20):
        rho = float(rng.uniform(20e3, 300e3))
        r_hat = float(rng.uniform(0.0, 500e3))
        dist = _dist600(rho, r_hat)
        grid = np.linspace(0.0, doppler_support_max(dist) * 1.02, 600)
        values = doppler_cdf(grid, dist)
        assert np.all(np.diff(values) >= -1e-14)
        assert values[0] == 0.0
        assert values[-1] == 1.0


def test_doppler_pdf_frozen_overhead_spot():
    dist = _dist600(100e3, 0.0)
    assert doppler_pdf(5e3, dist) == pytest.approx(1.230981643851789e-4, rel=1e-12)


def test_doppler_pdf_zero_in_central_gap():
    # Offset beyond the disk: magnitudes below the near-edge value are
    # unreachable, the density there is exactly zero.
    dist = _dist600(100e3, 300e3)
    lo = doppler_support_min(dist)
    assert lo > 0.0
    assert doppler_pdf(0.5 * lo, dist) == 0.0
    assert doppler_cdf(0.5 * lo, dist) == 0.0


def test_doppler_pdf_matches_cdf_finite_difference():
    step = 0.5
    for rho, r_hat in ((100e3, 0.0), (100e3, 50e3), (100e3, 250e3)):
        dist = _dist600(rho, r_hat)
        lo = doppler_support_min(dist)
        hi = doppler_support_max(dist)
        breaks = {lo, hi}
        z_kink = abs(rho - r_hat)
        if z_kink > 0.0:
            breaks.add(dist.a * z_kink / math.hypot(dist.h, z_kink))
        for x in np.linspace(lo + 5.0, hi - 5.0, 60):
            x = float(x)
            if any(abs(x - b) < 25.0 for b in breaks):
                continue
            fd = (doppler_cdf(x + step, dist) - doppler_cdf(x - step, dist)) / (2.0 * step)
            assert doppler_pdf(x, dist) == pytest.approx(fd, abs=1e-6)


def test_doppler_pdf_integrates_to_one():
    for rho, r_hat in ((100e3, 0.0), (100e3, 50e3), (100e3, 250e3), (50e3, 100e3)):
        dist = _dist600(rho, r_hat)
        lo = doppler_support_min(dist)
        hi = doppler_support_max(dist)
        pts = []
        z_kink = abs(rho - r_hat)
        if z_kink > 0.0:
            pts.append(dist.a * z_kink / math.hypot(dist.h, z_kink))
        total, err = quad(
            lambda x: doppler_pdf(x, dist), lo, hi, points=sorted(pts), limit=300
        )
        assert total == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------- support ----

def test_support_max_frozen_values():
    assert doppler_support_max(_dist600(100e3, 0.0)) == pytest.approx(
        8965.828732162241, rel=1e-12
    )
    assert doppler_support_max(_dist600(100e3, 200e3)) == pytest.approx(
        24389.69101737552, rel=1e-12
    )


def test_support_max_collapses_with_tiny_cluster():
    # As the disk shrinks the support top approaches the centre's magnitude.
    r_hat = 200e3
    dist = _dist600(1.0, r_hat)
    centre = A600 * r_hat / math.hypot(600e3, r_hat)
    assert doppler_support_max(dist) == pytest.approx(centre, rel=1e-5)


def test_magnitude_kernel_on_arrays_equals_support_max():
    rng = np.random.default_rng(23)
    rho = rng.uniform(1.0, 3e5, 300)
    r_hat = rng.uniform(0.0, 2e6, 300)
    dists = [_dist600(a, b) for a, b in zip(rho, r_hat)]
    far = np.array([d.r_hat + d.rho for d in dists])
    scalar = [doppler_support_max(d) for d in dists]
    assert np.array_equal(_magnitude_at_distance(far, dists[0]), scalar)


def _ulps_from_reference(a: float, h: float, z: np.ndarray) -> float:
    """Largest distance in ulps of _magnitude_at_distance from A z /
    sqrt(h^2 + z^2) taken to 50 digits at the same float inputs."""
    got = _magnitude_at_distance(z, DopplerMagnitudeDistribution(a, h, 1.0, 0.0))
    worst = 0.0
    with mpmath.workdps(50):
        for value, zi in zip(got, z):
            exact = mpmath.mpf(a) * zi / mpmath.sqrt(mpmath.mpf(h) ** 2 + mpmath.mpf(zi) ** 2)
            ref = float(exact)
            worst = max(worst, abs(value - ref) / math.ulp(ref) if ref else abs(value))
    return worst


def test_magnitude_kernel_is_within_four_ulps_at_paper_scale():
    rng = np.random.default_rng(29)
    for cfg in (CFG600, CFG1200):
        z = np.concatenate(([0.0], rng.uniform(0.0, 400e3, 500)))
        assert _ulps_from_reference(param_A(cfg), cfg.h, z) <= 4.0


@pytest.mark.parametrize("a", [MIN_DOPPLER_SCALE_HZ, MAX_DOPPLER_SCALE_HZ])
@pytest.mark.parametrize("h", [MIN_LENGTH_M, MAX_LENGTH_M])
def test_magnitude_kernel_is_within_four_ulps_at_the_scale_bounds(a, h):
    # Planar distances reach r_hat + rho, at most twice MAX_LENGTH_M.
    rng = np.random.default_rng(31)
    top = 2.0 * MAX_LENGTH_M
    z = np.concatenate((
        [0.0, MIN_LENGTH_M, 1.0, math.sqrt(MAX_LENGTH_M), MAX_LENGTH_M, top],
        10.0 ** rng.uniform(math.log10(MIN_LENGTH_M), math.log10(top), 100),
    ))
    assert _ulps_from_reference(a, h, z) <= 4.0


def test_support_min_zero_when_disk_covers_subsatellite_point():
    assert doppler_support_min(_dist600(100e3, 50e3)) == 0.0
    assert doppler_support_min(_dist600(100e3, 100e3)) == 0.0
    assert doppler_support_min(_dist600(100e3, 150e3)) > 0.0


# ----------------------------------------------------------- quantile ----

def test_quantile_edges():
    inside = _dist600(100e3, 50e3)
    assert doppler_quantile(0.0, inside) == 0.0
    assert doppler_quantile(1.0, inside) == doppler_support_max(inside)
    outside = _dist600(100e3, 300e3)
    assert doppler_quantile(0.0, outside) == doppler_support_min(outside)


def test_quantile_round_trip_99_grid():
    for rho, r_hat in ((100e3, 0.0), (100e3, 50e3), (100e3, 250e3)):
        dist = _dist600(rho, r_hat)
        p_grid = np.linspace(0.01, 0.99, 99)
        x = doppler_quantile(p_grid, dist)
        back = doppler_cdf(x, dist)
        assert np.max(np.abs(back - p_grid)) <= 1e-6


@pytest.mark.parametrize("f_c", [1e15, 1e22])
def test_quantile_terminates_where_float_spacing_exceeds_tolerance(f_c):
    # The support top passes 2^33 Hz, where float spacing exceeds 1e-6 Hz.
    cfg = SatelliteConfig(f_c=f_c, h=600e3, omega_s=1.1e-3)
    dist = DopplerMagnitudeDistribution.for_satellite(cfg, 100e3, 200e3)
    assert doppler_support_max(dist) > 2.0**33
    p = np.array([1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9])
    result = {}

    def solve():
        start = time.perf_counter()
        result["x"] = doppler_quantile(p, dist)
        result["scalar"] = doppler_quantile(0.5, dist)
        result["seconds"] = time.perf_counter() - start

    worker = threading.Thread(target=solve, daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive(), "doppler_quantile did not return"
    assert result["seconds"] < 1.0
    x = result["x"]
    assert np.all(doppler_cdf(x, dist) >= p)
    assert doppler_cdf(result["scalar"], dist) >= 0.5
    # Minimal up to the stopping width: two float spacings at the top.
    below = x - 2.0 * np.spacing(x)
    assert np.all(doppler_cdf(below, dist) < p)


def test_quantile_array_equals_scalar_calls():
    # Each entry stops on its own bracket, so batching changes nothing.
    for f_c in (2e9, 1e15):
        cfg = SatelliteConfig(f_c=f_c, h=600e3, omega_s=1.1e-3)
        dist = DopplerMagnitudeDistribution.for_satellite(cfg, 100e3, 200e3)
        p = np.random.default_rng(3).random(200)
        scalar = [doppler_quantile(float(q), dist) for q in p]
        assert np.array_equal(doppler_quantile(p, dist), scalar)


def test_quantile_rejects_bad_probability():
    with pytest.raises(ValueError):
        doppler_quantile(-0.01, _dist600(100e3, 0.0))
    with pytest.raises(ValueError):
        doppler_quantile(1.01, _dist600(100e3, 0.0))


# ------------------------------------------------------- order statistics ----

def test_order_stats_single_user_identity():
    dist = _dist600(100e3, 100e3)
    grid = np.linspace(0.0, doppler_support_max(dist), 50)
    assert np.allclose(min_doppler_cdf(grid, dist, 1), doppler_cdf(grid, dist), atol=0)
    assert np.allclose(max_doppler_cdf(grid, dist, 1), doppler_cdf(grid, dist), atol=0)


def test_order_stats_median_point_arithmetic():
    dist = _dist600(100e3, 100e3)
    x_med = doppler_quantile(0.5, dist)
    assert min_doppler_cdf(x_med, dist, 2) == pytest.approx(0.75, abs=1e-6)
    assert max_doppler_cdf(x_med, dist, 2) == pytest.approx(0.25, abs=1e-6)


def test_order_stats_sandwich():
    dist = _dist600(100e3, 150e3)
    grid = np.linspace(0.0, doppler_support_max(dist), 200)
    f = np.asarray(doppler_cdf(grid, dist))
    for n in (2, 5, 8):
        f_min = np.asarray(min_doppler_cdf(grid, dist, n))
        f_max = np.asarray(max_doppler_cdf(grid, dist, n))
        assert np.all(f_max <= f + 1e-14)
        assert np.all(f <= f_min + 1e-14)


def test_order_stats_reject_bad_cluster_size():
    dist = _dist600(100e3, 0.0)
    with pytest.raises(ValueError):
        min_doppler_cdf(1e3, dist, 0)
    with pytest.raises(ValueError):
        max_doppler_cdf(1e3, dist, -3)
    for law in (min_doppler_cdf, max_doppler_cdf):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="cluster size n"):
                law(1e3, dist, bad)


def test_single_user_law_takes_no_cluster_size():
    assert "n" not in inspect.signature(doppler_cdf).parameters
    assert "N" not in inspect.signature(doppler_cdf).parameters


# ----------------------------------------------------- overhead special ----

def test_overhead_matches_general_form_on_grid():
    dist = _dist600(100e3, 0.0)
    grid = np.linspace(0.0, doppler_support_max(dist), 512)
    general = np.asarray(doppler_cdf(grid, dist))
    special = np.asarray(overhead_cdf(grid, dist))
    assert np.max(np.abs(general - special)) <= 1e-12


def test_overhead_pdf_matches_general_form_on_grid():
    dist = _dist600(100e3, 0.0)
    hi = doppler_support_max(dist)
    grid = np.linspace(0.0, hi * (1.0 - 1e-9), 512)
    general = np.asarray(doppler_pdf(grid, dist))
    special = np.asarray(overhead_pdf(grid, dist))
    scale = np.max(special)
    assert np.max(np.abs(general - special)) <= 1e-12 * scale


def test_overhead_support_endpoint_exact():
    rho, h = 100e3, 600e3
    dist = _dist600(rho, 0.0)
    x_top = dist.a / math.sqrt(1.0 + h**2 / rho**2)
    assert doppler_support_max(dist) == pytest.approx(x_top, rel=1e-14)
    assert overhead_cdf(x_top * (1.0 - 1e-12), dist) == pytest.approx(1.0, abs=1e-9)
    assert overhead_cdf(x_top, dist) == 1.0


def test_overhead_requires_centered_subsatellite_point():
    with pytest.raises(ValueError):
        overhead_cdf(1e3, _dist600(100e3, 10e3))
    with pytest.raises(ValueError):
        overhead_pdf(1e3, _dist600(100e3, 10e3))


def test_overhead_quadrupling_with_altitude():
    # Doubling the altitude at fixed cluster radius more than quadruples the
    # low-magnitude CDF; the small-x limit of the ratio is 4 (A600/A1200)^2.
    rho = 100e3
    d600 = DopplerMagnitudeDistribution.for_satellite(CFG600, rho, 0.0)
    d1200 = DopplerMagnitudeDistribution.for_satellite(CFG1200, rho, 0.0)
    limit = 4.0 * (d600.a / d1200.a) ** 2
    assert limit == pytest.approx(4.389116630699451, rel=1e-12)
    for x in np.linspace(0.001 * A600, 0.05 * A600, 25):
        ratio = overhead_cdf(float(x), d1200) / overhead_cdf(float(x), d600)
        assert ratio > 4.0
    x_probe = 0.01 * A600
    ratio = overhead_cdf(x_probe, d1200) / overhead_cdf(x_probe, d600)
    assert 4.0 < ratio < 4.8


# ------------------------------------------------- stochastic orderings ----

def test_cdf_decreases_with_cluster_radius():
    # Larger clusters push probability mass to larger magnitudes.
    dists = [_dist600(rho, 2.0 * rho) for rho in (50e3, 100e3, 150e3)]
    grid = np.linspace(0.0, max(doppler_support_max(d) for d in dists), 512)
    f50, f100, f150 = (np.asarray(doppler_cdf(grid, d)) for d in dists)
    assert np.all(f50 >= f100 - 1e-14)
    assert np.all(f100 >= f150 - 1e-14)
    # Strict once past the narrow scenario's support floor (~4.5 kHz here).
    mid = grid[(grid > 6e3) & (grid < 12e3)]
    assert np.all(
        np.asarray(doppler_cdf(mid, dists[0])) > np.asarray(doppler_cdf(mid, dists[1]))
    )


def test_cdf_decreases_with_centre_offset():
    dists = [_dist600(100e3, r_hat) for r_hat in (0.0, 100e3, 200e3, 300e3)]
    grid = np.linspace(0.0, max(doppler_support_max(d) for d in dists), 512)
    curves = [np.asarray(doppler_cdf(grid, d)) for d in dists]
    for near, far in zip(curves, curves[1:]):
        assert np.all(near >= far - 1e-14)


def test_cdf_improves_with_altitude():
    for rho in (100e3, 200e3):
        low = DopplerMagnitudeDistribution.for_satellite(CFG600, rho, 2.0 * rho)
        high = DopplerMagnitudeDistribution.for_satellite(CFG1200, rho, 2.0 * rho)
        grid = np.linspace(0.0, doppler_support_max(low), 512)
        assert np.all(
            np.asarray(doppler_cdf(grid, high)) >= np.asarray(doppler_cdf(grid, low)) - 1e-14
        )


# ------------------------------------------------------- construction ----

def test_distribution_field_validation():
    with pytest.raises(ValueError):
        DopplerMagnitudeDistribution(a=-1.0, h=600e3, rho=100e3, r_hat=0.0)
    with pytest.raises(ValueError):
        DopplerMagnitudeDistribution(a=A600, h=600e3, rho=0.0, r_hat=0.0)
    with pytest.raises(ValueError):
        DopplerMagnitudeDistribution(a=A600, h=600e3, rho=100e3, r_hat=-1.0)


# ------------------------------------------------- NaN and infinite input ----

_D = _dist600(100e3, 200e3)
_DISK = DiskDistanceDistribution(radius=100e3, offset=200e3)
_OVERHEAD = _dist600(100e3, 0.0)


# Each law with its value at +inf: 1 for a CDF, 0 for a density, and None
# for the quantile, which must raise there.
_LAWS = {
    "disk_distance_cdf": (lambda x: disk_distance_cdf(x, _DISK), 1.0),
    "disk_distance_pdf": (lambda x: disk_distance_pdf(x, _DISK), 0.0),
    "doppler_cdf": (lambda x: doppler_cdf(x, _D), 1.0),
    "doppler_pdf": (lambda x: doppler_pdf(x, _D), 0.0),
    "doppler_quantile": (lambda x: doppler_quantile(x, _D), None),
    "min_doppler_cdf": (lambda x: min_doppler_cdf(x, _D, 4), 1.0),
    "max_doppler_cdf": (lambda x: max_doppler_cdf(x, _D, 4), 1.0),
    "overhead_cdf": (lambda x: overhead_cdf(x, _OVERHEAD), 1.0),
    "overhead_pdf": (lambda x: overhead_pdf(x, _OVERHEAD), 0.0),
}
_each_law = pytest.mark.parametrize("law, at_inf", list(_LAWS.values()), ids=list(_LAWS))


@_each_law
def test_law_functions_reject_nan(law, at_inf):
    with pytest.raises(ValueError, match="NaN"):
        law(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        law(np.array([0.0, math.nan]))


@_each_law
def test_law_functions_at_infinity(law, at_inf):
    # +inf lies above every support: a CDF is exactly 1 and a density
    # exactly 0 there, while no probability is infinite. -inf is negative.
    for x in (math.inf, np.array([0.0, math.inf])):
        if at_inf is None:
            with pytest.raises(ValueError, match="at most 1"):
                law(x)
        else:
            assert np.atleast_1d(law(x))[-1] == at_inf
    for x in (-math.inf, np.array([0.0, -math.inf])):
        with pytest.raises(ValueError, match="must be nonnegative"):
            law(x)

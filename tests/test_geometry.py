"""Orbital and spherical-Earth geometry.

Frozen expected values were computed with independent oracles: elevations
from explicit 3-D vectors, the flat-earth regime from a sweep of the exact
spherical elevation, and algebraic identities where one exists.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from leodoppler import montecarlo
from leodoppler.distributions import DopplerMagnitudeDistribution, _magnitude_at_distance
from leodoppler.doppler import PassGeometry, doppler_exact
from leodoppler.geometry import (
    EARTH_RADIUS_M,
    BelowHorizonError,
    PlanarPoint,
    SatelliteConfig,
    _slant_of_cos,
    angular_velocity_ecf,
    central_angle,
    clamp_unit,
    elevation_from_central_angle,
    orbital_radius,
    slant_range,
)

CFG600 = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3)
CFG1200 = SatelliteConfig(f_c=2e9, h=1200e3, omega_s=9.5809e-4)


# ---------------------------------------------------------------- config ----

def test_config_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        SatelliteConfig(f_c=0.0, h=600e3, omega_s=1.1e-3)
    with pytest.raises(ValueError):
        SatelliteConfig(f_c=2e9, h=-1.0, omega_s=1.1e-3)
    with pytest.raises(ValueError):
        SatelliteConfig(f_c=2e9, h=600e3, omega_s=0.0)
    with pytest.raises(ValueError):
        SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3, theta_i=4.0)
    with pytest.raises(ValueError):
        SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3, r_e=0.0)


def test_speed_of_light_is_exact_si():
    assert CFG600.c == 299792458.0


# ----------------------------------------------------------- clamp policy ----

def test_clamp_unit_passes_interior_and_clamps_noise():
    assert clamp_unit(0.5) == 0.5
    assert clamp_unit(1.0 + 5e-13) == 1.0
    assert clamp_unit(-1.0 - 5e-13) == -1.0


def test_clamp_unit_raises_beyond_tolerance():
    with pytest.raises(ValueError):
        clamp_unit(1.0 + 1e-9)
    with pytest.raises(ValueError):
        clamp_unit(np.array([0.0, -1.1]))


# -------------------------------------------------------- orbital radius ----

def test_orbital_radius_standard_altitudes():
    assert orbital_radius(CFG600) == pytest.approx(6971e3, rel=0, abs=1e-6)
    assert orbital_radius(CFG1200) == pytest.approx(7571e3, rel=0, abs=1e-6)


def test_orbital_radius_exceeds_earth_radius():
    assert orbital_radius(CFG600) > CFG600.r_e


# ------------------------------------------------- relative angular rate ----

def test_angular_velocity_standard_cases():
    assert angular_velocity_ecf(CFG600) == pytest.approx(1.1727e-3, rel=1e-12)
    assert angular_velocity_ecf(CFG1200) == pytest.approx(1.03079e-3, rel=1e-12)


def test_angular_velocity_polar_orbit_drops_earth_term():
    polar = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3, theta_i=math.pi / 2)
    assert angular_velocity_ecf(polar) == pytest.approx(1.1e-3, rel=1e-12)


# ------------------------------------------------------------ slant range ----

def test_slant_range_overhead_closest_approach_is_altitude():
    # Exact for integer-metre radii: the law of cosines collapses to (r_o - r_E)^2.
    assert slant_range(0.0, 1.0, CFG600) == 600e3
    assert slant_range(0.0, 1.0, CFG1200) == 1200e3


def test_slant_range_quarter_orbit_is_hypotenuse():
    w = angular_velocity_ecf(CFG600)
    expected = math.sqrt(CFG600.r_e**2 + orbital_radius(CFG600) ** 2)
    assert slant_range((math.pi / 2) / w, 1.0, CFG600) == pytest.approx(expected, rel=1e-12)


def test_slant_range_bounds_and_symmetry():
    rng = np.random.default_rng(91)
    r_o = orbital_radius(CFG600)
    for _ in range(200):
        theta = float(rng.uniform(CFG600.r_e / r_o, 1.0))
        dt = float(rng.uniform(-4000.0, 4000.0))
        s = slant_range(dt, theta, CFG600)
        assert CFG600.h <= s <= CFG600.r_e + r_o
        assert s == pytest.approx(slant_range(-dt, theta, CFG600), rel=1e-15)


def test_slant_kernel_on_arrays_equals_slant_range():
    rng = np.random.default_rng(92)
    w = angular_velocity_ecf(CFG600)
    theta = rng.uniform(CFG600.r_e / orbital_radius(CFG600), 1.0, 500)
    dt = rng.uniform(-4000.0, 4000.0, 500)
    cos_gamma = np.array([math.cos(t * w) * th for t, th in zip(dt, theta)])
    scalar = [slant_range(t, th, CFG600) for t, th in zip(dt, theta)]
    assert np.array_equal(_slant_of_cos(cos_gamma, CFG600), scalar)
    out = cos_gamma.copy()
    assert _slant_of_cos(out, CFG600, out=out) is out
    assert np.array_equal(out, scalar)


def test_slant_range_rejects_bad_theta():
    with pytest.raises(ValueError):
        slant_range(0.0, 1.5, CFG600)
    with pytest.raises(ValueError):
        slant_range(0.0, -0.2, CFG600)
    # A non-finite time offset is rejected by name, not turned into NaN.
    for dt in (math.nan, math.inf, -math.inf):
        for law in (slant_range, central_angle):
            with pytest.raises(ValueError, match="time offset dt"):
                law(dt, 0.9, CFG600)


# ---------------------------------------------------------- central angle ----

def test_central_angle_closest_approach():
    assert central_angle(0.0, 1.0, CFG600) == 0.0
    theta = 0.95
    assert central_angle(0.0, theta, CFG600) == pytest.approx(math.acos(theta), rel=1e-15)


def test_central_angle_consistent_with_slant_range():
    rng = np.random.default_rng(17)
    r_o = orbital_radius(CFG600)
    for _ in range(100):
        theta = float(rng.uniform(CFG600.r_e / r_o, 1.0))
        dt = float(rng.uniform(-3000.0, 3000.0))
        gamma = central_angle(dt, theta, CFG600)
        via_los = math.sqrt(
            CFG600.r_e**2 + r_o**2 - 2.0 * r_o * CFG600.r_e * math.cos(gamma)
        )
        assert slant_range(dt, theta, CFG600) == pytest.approx(via_los, rel=1e-14)


# --------------------------------------------------------------- elevation ----

def test_elevation_overhead_is_vertical():
    assert elevation_from_central_angle(0.0, CFG600) == pytest.approx(math.pi / 2)


def test_elevation_at_horizon_angle_is_zero():
    gamma_h = math.acos(CFG600.r_e / orbital_radius(CFG600))
    assert elevation_from_central_angle(gamma_h, CFG600) == pytest.approx(0.0, abs=1e-9)


def test_elevation_frozen_value():
    # Independent 3-D vector oracle: user on the x axis, satellite at 0.05 rad.
    assert elevation_from_central_angle(0.05, CFG600) == pytest.approx(
        1.0383334297899154, rel=1e-12
    )


def test_elevation_below_horizon_raises():
    gamma_h = math.acos(CFG600.r_e / orbital_radius(CFG600))
    with pytest.raises(BelowHorizonError):
        elevation_from_central_angle(gamma_h + 0.01, CFG600)


def test_elevation_rejects_bad_central_angle():
    with pytest.raises(ValueError):
        elevation_from_central_angle(-0.1, CFG600)
    with pytest.raises(ValueError):
        elevation_from_central_angle(3.2, CFG600)


def test_elevation_matches_cosine_relation():
    # cos(alpha) = r_o sin(gamma) / s on a sweep of visible angles.
    r_o = orbital_radius(CFG600)
    for gamma in np.linspace(1e-4, math.acos(CFG600.r_e / r_o) - 1e-6, 25):
        alpha = elevation_from_central_angle(float(gamma), CFG600)
        s = math.sqrt(CFG600.r_e**2 + r_o**2 - 2.0 * r_o * CFG600.r_e * math.cos(gamma))
        # abs floor: cos(alpha) near overhead is ill-conditioned through asin
        assert math.cos(alpha) == pytest.approx(
            r_o * math.sin(gamma) / s, rel=1e-9, abs=1e-10
        )


# ----------------------------------------------------- flat-earth cosine ----

def _planar_cos(z: float, cfg: SatelliteConfig) -> float:
    """Flat-earth cos(elevation) r_o z / (r_E sqrt(h^2 + z^2)) at planar
    distance z, which is (r_o / r_E) x / A for the envelope magnitude x
    that distributions._magnitude_at_distance gives at z."""
    dist = DopplerMagnitudeDistribution.for_satellite(cfg, 1.0, 0.0)
    return orbital_radius(cfg) / cfg.r_e * float(_magnitude_at_distance(z, dist)) / dist.a


def test_planar_elevation_frozen_value():
    assert _planar_cos(100e3, CFG600) == pytest.approx(0.17988154771710024, rel=1e-12)


def test_planar_elevation_zero_distance_overhead():
    assert _planar_cos(0.0, CFG600) == 0.0


def test_planar_elevation_unit_cosine_distance():
    # cos = 1 exactly at z* = r_E h / sqrt(r_o^2 - r_E^2), from the algebra.
    r_o = orbital_radius(CFG600)
    z_star = CFG600.r_e * CFG600.h / math.sqrt(r_o**2 - CFG600.r_e**2)
    assert z_star == pytest.approx(1351054.1696060945, rel=1e-12)
    assert _planar_cos(z_star, CFG600) == pytest.approx(1.0, rel=1e-14)


def test_flat_earth_agreement_regime():
    # Measured agreement of the planar cosine with the spherical one at
    # h = 600 km: within 1e-3 absolute for gamma <= 0.025 rad, and the gap
    # grows to ~1.4e-2 by gamma = 0.08 rad (still < 1.5e-2).
    for gamma in np.linspace(1e-4, 0.025, 40):
        exact = math.cos(elevation_from_central_angle(float(gamma), CFG600))
        approx = _planar_cos(CFG600.r_e * float(gamma), CFG600)
        assert abs(exact - approx) <= 1e-3
    for gamma in np.linspace(0.025, 0.08, 40):
        exact = math.cos(elevation_from_central_angle(float(gamma), CFG600))
        approx = _planar_cos(CFG600.r_e * float(gamma), CFG600)
        assert abs(exact - approx) <= 1.5e-2


# --------------------------------------------------------- plane mapping ----
# montecarlo._batch_magnitudes maps the tangent plane to the sphere inline:
# a user's along-track (x) and cross-track (y) offsets to the sub-satellite
# point become the angles x / r_E and y / r_E.

def _mapped_users(u_angle, rho: float, r_hat: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact magnitudes and planar distances that _batch_magnitudes gives
    users on the rim of the disk at the given angle fractions (quarter
    turns land exactly on the axes), sub-satellite point at (r_hat, 0)."""
    sc = montecarlo.ScenarioConfig(
        cfg=CFG600, rho=rho, r_hat=r_hat, n_users=1, trials=1, seed=0
    )
    rows = {}
    n = len(u_angle)
    montecarlo._batch_magnitudes(
        sc, np.ones(n), np.array(u_angle, dtype=float),
        lambda row, values, z: rows.setdefault(row, (values.copy(), z.copy())),
        np.empty((6, n)),
    )
    return rows[0][0], rows[1][1]


def _pass_shift(psi: float, beta: float, cfg: SatelliteConfig) -> float:
    """|Exact shift| at along-track angle psi on the pass whose closest
    approach has cross-track angle beta."""
    geometry = PassGeometry(elevation_from_central_angle(beta, cfg), 0.0, math.cos(beta))
    return abs(doppler_exact(psi / angular_velocity_ecf(cfg), geometry, cfg))


def test_plane_to_sphere_axis_points():
    # Sub-satellite point at the cluster centre: users on the x axis see the
    # on-track pass at central angle rho / r_E, users on the y axis sit at
    # closest approach, where the shift is zero.
    rho = 100e3
    exact, z = _mapped_users([0.0, 0.25, 0.5, 0.75], rho, r_hat=0.0)
    on_track = _pass_shift(rho / EARTH_RADIUS_M, 0.0, CFG600)
    assert on_track > 0.0
    assert exact == pytest.approx([on_track, 0.0, on_track, 0.0], rel=1e-12, abs=0.0)
    assert np.array_equal(z, [rho] * 4)


def test_plane_to_sphere_central_angle_composition():
    # A user 60 km along track and 80 km across it from the sub-satellite
    # point sees the pass with cross-track angle beta = 80 km / r_E at phase
    # psi = 60 km / r_E. cos(gamma) = cos(beta) cos(psi) stays within 1e-6
    # rad of the planar 100 km / r_E; the residual is the spherical excess.
    exact, z = _mapped_users([0.25], rho=80e3, r_hat=60e3)
    psi, beta = 60e3 / CFG600.r_e, 80e3 / CFG600.r_e
    assert exact[0] == pytest.approx(_pass_shift(psi, beta, CFG600), rel=1e-12)
    assert z[0] == 100e3
    gamma = central_angle(psi / angular_velocity_ecf(CFG600), math.cos(beta), CFG600)
    assert abs(gamma - 100e3 / CFG600.r_e) < 1e-6


def test_planar_point_rejects_non_finite():
    with pytest.raises(ValueError):
        PlanarPoint(math.nan, 0.0)
    with pytest.raises(ValueError):
        PlanarPoint(0.0, math.inf)

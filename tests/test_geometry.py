"""Orbital and spherical-Earth geometry.

Frozen expected values were computed with independent oracles: elevations
from explicit 3-D vectors, the flat-earth regime from a sweep of the exact
spherical elevation, and algebraic identities where one exists.
"""
from __future__ import annotations

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leodoppler import montecarlo
from leodoppler.cli import ConfigValidationError, _resolve
from leodoppler.distributions import (
    DopplerMagnitudeDistribution,
    _magnitude_at_distance,
    doppler_support_max,
    max_doppler_cdf,
    min_doppler_cdf,
)
from leodoppler.doppler import PassGeometry, doppler_exact
from leodoppler.geometry import (
    EARTH_RADIUS_M,
    SPEED_OF_LIGHT_M_S,
    BelowHorizonError,
    PlanarPoint,
    SatelliteConfig,
    _above_horizon,
    _slant_of_versin,
    angular_velocity_ecf,
    central_angle,
    elevation_from_central_angle,
    orbital_radius,
    slant_range,
)
from leodoppler.pointprocess import CellModel, _disk_points, sample_uniform_disk

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
    for omega_e in (-1e-5, math.nan, math.inf):
        with pytest.raises(ValueError, match="Earth rotation rate"):
            SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3, omega_e=omega_e)


# ---------------------------------------------------------------- counts ----

def _scene(**counts) -> montecarlo.ScenarioConfig:
    counts = {"n_users": 8, "trials": 10, "seed": 1, "grid_points": 64, **counts}
    return montecarlo.ScenarioConfig(cfg=CFG600, rho=100e3, r_hat=200e3, **counts)


_LAW = DopplerMagnitudeDistribution.for_satellite(CFG600, 100e3, 200e3)
_GRID = np.linspace(0.0, doppler_support_max(_LAW), 64)


def _report_bytes(report) -> tuple:
    return report.cdf_emp_exact.tobytes(), report.cdf_emp_bound.tobytes(), report.ks_exact


_SCENE_COUNTS = (
    ("n_users", 1, None),
    ("trials", 1, None),
    ("seed", 0, 2**64 - 1),
    ("grid_points", 2, montecarlo.MAX_GRID_POINTS),
)


# (name in the message, lowest, highest or None, call that stores or uses
# the count, error raised). A stored count is returned as stored; the other
# calls give results that == compares.
_COUNTS = [
    *(
        pytest.param(
            key, lo, hi, lambda v, key=key: getattr(_scene(**{key: v}), key), ValueError,
            id=f"ScenarioConfig.{key}",
        )
        for key, lo, hi in _SCENE_COUNTS
    ),
    pytest.param(
        "thread count", 1, None, lambda v: _report_bytes(montecarlo.run_scenario(_scene(), v)),
        ValueError, id="run_scenario.threads",
    ),
    pytest.param(
        "cluster size n", 1, None, lambda v: min_doppler_cdf(_GRID, _LAW, v).tobytes(),
        ValueError, id="min_doppler_cdf.n",
    ),
    pytest.param(
        "cluster size n", 1, None, lambda v: max_doppler_cdf(_GRID, _LAW, v).tobytes(),
        ValueError, id="max_doppler_cdf.n",
    ),
    pytest.param(
        "users per cluster n", 1, None,
        lambda v: CellModel(r_cell=1e4, lambda_c=1e-8, rho=1e3, n=v).n,
        ValueError, id="CellModel.n",
    ),
    pytest.param(
        "user count n", 1, None,
        lambda v: sample_uniform_disk(
            PlanarPoint(0.0, 0.0), 1e3, v, np.random.default_rng(5)
        ).users.tobytes(),
        ValueError, id="sample_uniform_disk.n",
    ),
    *(
        pytest.param(
            key, lo, hi, lambda v, key=key: getattr(_resolve({"h_km": 600.0, key: v}), key),
            ConfigValidationError, id=f"config.{key}",
        )
        for key, lo, hi in _SCENE_COUNTS
    ),
]


@pytest.mark.parametrize("name, lo, hi, call, error", _COUNTS)
def test_every_count_takes_a_whole_number_within_its_bounds(name, lo, hi, call, error):
    for bad in (math.nan, math.inf, -math.inf, 2.5):
        with pytest.raises(error, match=f"^{re.escape(f'{name} must be an integer, got {bad}')}$"):
            call(bad)
    bound = f"at least {lo}" if hi is None else f"{lo} to {hi}"
    for past in (lo - 1,) if hi is None else (lo - 1, hi + 1):
        with pytest.raises(error, match=f"^{re.escape(f'{name} must be {bound}, got ')}"):
            call(past)
    # A whole float is taken as the int it equals.
    whole, exact = call(8.0), call(8)
    assert whole == exact and type(whole) is type(exact)


def test_speed_of_light_is_exact_si():
    assert SPEED_OF_LIGHT_M_S == 299792458.0


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
    # At cos(gamma) = 1 the slant is sqrt(h^2), which is h to the bit, from
    # 1 mm to 1e12 m: no term cancels.
    assert slant_range(0.0, 1.0, CFG600) == 600e3
    assert slant_range(0.0, 1.0, CFG1200) == 1200e3
    rng = np.random.default_rng(23)
    for h in np.concatenate(([1e-3, 1e12], 10.0 ** rng.uniform(-3.0, 12.0, 502))):
        cfg = SatelliteConfig(f_c=2e9, h=float(h), omega_s=1e-3)
        assert slant_range(0.0, 1.0, cfg) == cfg.h


def test_one_millimetre_altitude_overhead_is_regular():
    cfg = SatelliteConfig(f_c=2e9, h=1e-3, omega_s=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert elevation_from_central_angle(0.0, cfg) == math.pi / 2
        assert doppler_exact(0.0, PassGeometry(1.0), cfg) == 0.0


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
    assert np.array_equal(_slant_of_versin(1.0 - cos_gamma, CFG600), scalar)
    out = 1.0 - cos_gamma
    assert _slant_of_versin(out, CFG600, out=out) is out
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


@pytest.mark.parametrize("theta", [1.0, 1.0 + 5e-13])
@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 4])
def test_central_angle_at_whole_half_turns(theta, k):
    # At theta = 1 (a theta within the tolerance above 1 is clamped to it)
    # and phase k pi, cos(phase) * theta is exactly +-1, the edge of acos's
    # domain: the angle is 0 or pi, never a domain error.
    dt = k * math.pi / angular_velocity_ecf(CFG600)
    assert math.cos(dt * angular_velocity_ecf(CFG600)) in (-1.0, 1.0)
    assert central_angle(dt, theta, CFG600) == (math.pi if k % 2 else 0.0)


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


CFG1M = SatelliteConfig(f_c=2e9, h=1.0, omega_s=1.1e-3)
CFG1MM = SatelliteConfig(f_c=2e9, h=1e-3, omega_s=1.1e-3)


@pytest.mark.parametrize(
    "cfg", [CFG600, CFG1200, CFG1M, CFG1MM], ids=["600km", "1200km", "1m", "1mm"]
)
def test_elevation_matches_high_precision_reference(cfg):
    # atan2(r_o cos(gamma) - r_E, r_o sin(gamma)) in 50 digits at the same
    # float gamma, near overhead and out to 0.95 of the horizon angle. At
    # 1 m and 1 mm the horizon angle is 6e-4 and 2e-5 rad, so gamma runs
    # from 1e-3 to 0.95 of it there; r_E + h keeps only about 9 and 6 of
    # h's digits, which r_o cos(gamma) - r_E would carry over.
    r_o = orbital_radius(cfg)
    gamma_h = math.acos(cfg.r_e / r_o)
    if cfg.h >= 1e3:
        gammas = np.concatenate(
            (np.geomspace(1e-9, 1e-3, 100), np.linspace(1e-3, 0.95 * gamma_h, 100))
        )
    else:
        gammas = np.geomspace(1e-3 * gamma_h, 0.95 * gamma_h, 200)
    with mpmath.workdps(50):
        r_o_mp = mpmath.mpf(cfg.r_e) + mpmath.mpf(cfg.h)
        for gamma in gammas:
            g = mpmath.mpf(float(gamma))
            exact = mpmath.atan2(r_o_mp * mpmath.cos(g) - cfg.r_e, r_o_mp * mpmath.sin(g))
            alpha = elevation_from_central_angle(float(gamma), cfg)
            assert abs(alpha - exact) <= 1e-13 * exact, gamma


def test_elevation_overhead_keeps_altitude_lost_in_orbital_radius():
    # r_E + h rounds to r_E, yet the satellite is h above an overhead user.
    cfg = SatelliteConfig(
        f_c=1.0, h=1e-3, omega_s=SPEED_OF_LIGHT_M_S / 1e14, omega_e=0.0, r_e=1e14
    )
    assert orbital_radius(cfg) == cfg.r_e
    assert elevation_from_central_angle(0.0, cfg) == math.pi / 2


@settings(max_examples=300, deadline=None)
@given(
    log_r_e=st.floats(-3.0, 150.0),
    log_h=st.floats(-3.0, 150.0),
    log_offset=st.floats(-17.0, 0.0),
    outside=st.booleans(),
)
# At the float horizon angle of r_E = 10 m, h = 1 m the test passes and
# h cos(gamma) - 2 r_E sin^2(gamma / 2) rounds to -3e-16 m.
@example(log_r_e=1.0, log_h=0.0, log_offset=-17.0, outside=False)
def test_elevation_in_range_wherever_horizon_test_passes(log_r_e, log_h, log_offset, outside):
    r_e, h = 10.0**log_r_e, 10.0**log_h
    r_o = r_e + h
    cfg = SatelliteConfig(
        f_c=1.0, h=h, omega_s=SPEED_OF_LIGHT_M_S / r_o, omega_e=0.0, r_e=r_e
    )
    offset = 10.0**log_offset
    gamma = math.acos(r_e / r_o) * (1.0 + offset if outside else 1.0 - offset)
    if not _above_horizon(1.0 - math.cos(gamma), cfg):
        with pytest.raises(BelowHorizonError):
            elevation_from_central_angle(gamma, cfg)
        return
    assert 0.0 <= elevation_from_central_angle(gamma, cfg) <= math.pi / 2


_SCALES_M = st.floats(-3.0, 150.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(r_e=_SCALES_M, h=_SCALES_M, fraction=st.floats(0.98, 1.02))
# r_E + h rounds to r_E; 2 % past the horizon angle cos(gamma) still
# rounds to 1, where the rise is h.
@example(r_e=1e14, h=1e-3, fraction=1.02)
# r_E + h rounds up by 2.3e121 m, so r_o cos(gamma) >= r_E passed users
# whose rise is -5.4e-3 h.
@example(r_e=4.2e137, h=3.2e123, fraction=0.9991)
def test_horizon_test_follows_exact_rise(r_e, h, fraction):
    # Against r_o cos(gamma) - r_E in 60 digits at the float cos(gamma),
    # for gamma within 2 % of the horizon angle 2 asin(sqrt(h / 2 r_o)):
    # users with a rise of 0 or more see the satellite, users with a rise
    # below -2^-43 h do not.
    cfg = SatelliteConfig(
        f_c=1.0, h=h, omega_s=SPEED_OF_LIGHT_M_S / (r_e + h), omega_e=0.0, r_e=r_e
    )
    with mpmath.workdps(60):
        r_o = mpmath.mpf(r_e) + mpmath.mpf(h)
        gamma = float(fraction * 2 * mpmath.asin(mpmath.sqrt(mpmath.mpf(h) / (2 * r_o))))
        cos_gamma = math.cos(gamma)
        rise = r_o * mpmath.mpf(cos_gamma) - mpmath.mpf(r_e)
        visible = bool(_above_horizon(1.0 - cos_gamma, cfg))
        if rise >= 0:
            assert visible, float(rise / h)
        elif rise < -(2.0**-43) * h:
            assert not visible, float(rise / h)
    if visible:
        assert 0.0 <= elevation_from_central_angle(gamma, cfg) <= math.pi / 2
    else:
        with pytest.raises(BelowHorizonError):
            elevation_from_central_angle(gamma, cfg)


@settings(max_examples=300, deadline=None)
@given(r_e=_SCALES_M, ratio=st.floats(1 / 500, 1e3))
def test_nearest_float_to_horizon_cosine_is_visible(r_e, ratio):
    # r_E / r_o rounded to nearest, even where it rounds below the horizon
    # cosine, as acos(r_E / r_o) does at 600 km.
    h = r_e * ratio
    assume(1e-3 <= h <= 1e150)
    cfg = SatelliteConfig(
        f_c=1.0, h=h, omega_s=SPEED_OF_LIGHT_M_S / (r_e + h), omega_e=0.0, r_e=r_e
    )
    with mpmath.workdps(60):
        cos_h = float(mpmath.mpf(r_e) / (mpmath.mpf(r_e) + mpmath.mpf(h)))
    assert _above_horizon(1.0 - cos_h, cfg)


def test_elevation_matches_cosine_relation():
    # cos(alpha) = r_o sin(gamma) / s on a sweep of visible angles.
    r_o = orbital_radius(CFG600)
    for gamma in np.linspace(1e-4, math.acos(CFG600.r_e / r_o) - 1e-6, 25):
        alpha = elevation_from_central_angle(float(gamma), CFG600)
        s = math.sqrt(CFG600.r_e**2 + r_o**2 - 2.0 * r_o * CFG600.r_e * math.cos(gamma))
        # abs floor: near overhead cos(alpha) is small and carries the
        # absolute rounding of alpha near pi / 2
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

def _mapped_users(
    batch_magnitudes,
    u_angle,
    rho: float,
    r_hat: float,
    cfg: SatelliteConfig = CFG600,
    on_track: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact magnitudes and planar distances that _batch_magnitudes gives
    users on the rim of the disk at the given angle fractions (quarter
    turns land exactly on the axes), sub-satellite point at (r_hat, 0), or
    at (0, r_hat) when not on_track. Every user must see the satellite."""
    sc = montecarlo.ScenarioConfig(
        cfg=cfg, rho=rho, r_hat=r_hat, n_users=1, trials=1, seed=0,
        cluster_center_on_track=on_track,
    )
    exact, z, _, visible = batch_magnitudes(
        sc, np.ones(len(u_angle)), np.array(u_angle, dtype=float)
    )
    assert np.all(visible)
    return exact, z


def _pass_shift(psi: float, beta: float, cfg: SatelliteConfig) -> float:
    """|Exact shift| at along-track angle psi on the pass whose closest
    approach has cross-track angle beta."""
    geometry = PassGeometry(math.cos(beta))
    return abs(doppler_exact(psi / angular_velocity_ecf(cfg), geometry, cfg))


def test_plane_to_sphere_axis_points(batch_magnitudes):
    # Sub-satellite point at the cluster centre: users on the x axis see the
    # on-track pass at central angle rho / r_E, users on the y axis sit at
    # closest approach, where the shift is zero.
    rho = 100e3
    exact, z = _mapped_users(batch_magnitudes, [0.0, 0.25, 0.5, 0.75], rho, r_hat=0.0)
    on_track = _pass_shift(rho / EARTH_RADIUS_M, 0.0, CFG600)
    assert on_track > 0.0
    assert exact == pytest.approx([on_track, 0.0, on_track, 0.0], rel=1e-12, abs=0.0)
    assert np.array_equal(z, [rho] * 4)


def test_plane_to_sphere_central_angle_composition(batch_magnitudes):
    # A user 60 km along track and 80 km across it from the sub-satellite
    # point sees the pass with cross-track angle beta = 80 km / r_E at phase
    # psi = 60 km / r_E. cos(gamma) = cos(beta) cos(psi) stays within 1e-6
    # rad of the planar 100 km / r_E; the residual is the spherical excess.
    exact, z = _mapped_users(batch_magnitudes, [0.25], rho=80e3, r_hat=60e3)
    psi, beta = 60e3 / CFG600.r_e, 80e3 / CFG600.r_e
    assert exact[0] == pytest.approx(_pass_shift(psi, beta, CFG600), rel=1e-12)
    assert z[0] == 100e3
    gamma = central_angle(psi / angular_velocity_ecf(CFG600), math.cos(beta), CFG600)
    assert abs(gamma - 100e3 / CFG600.r_e) < 1e-6


@pytest.mark.parametrize("on_track", [True, False])
def test_exact_row_matches_doppler_exact_at_the_validity_radius(on_track, batch_magnitudes):
    # The far rim sits pi r_E / 4 from the sub-satellite point, so the
    # angle whose cosine _batch_magnitudes takes as sqrt(1 - sin^2) reaches
    # its bound pi / 4. From 3000 km every user sees the satellite.
    cfg = SatelliteConfig(f_c=2e9, h=3000e3, omega_s=6e-4)
    rho, limit = 100e3, math.pi * cfg.r_e / 4.0
    r_hat = limit - rho
    assert r_hat + rho == limit
    far = 0.5 if on_track else 0.75
    u_angle = np.concatenate((np.arange(32) / 32.0, [far - 1e-9, far + 1e-9]))
    exact, z = _mapped_users(batch_magnitudes, u_angle, rho, r_hat, cfg, on_track)
    assert exact.size == u_angle.size
    assert z.max() == limit
    # The same planar points, so that only the sphere map is compared.
    x, y = np.empty(u_angle.size), np.empty(u_angle.size)
    _disk_points(np.ones(u_angle.size), u_angle.copy(), rho, x, y, np.empty(u_angle.size))
    sx, sy = (r_hat, 0.0) if on_track else (0.0, r_hat)
    expected = [
        _pass_shift((sx - xi) / cfg.r_e, abs(sy - yi) / cfg.r_e, cfg) for xi, yi in zip(x, y)
    ]
    assert exact == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_planar_point_rejects_non_finite():
    with pytest.raises(ValueError):
        PlanarPoint(math.nan, 0.0)
    with pytest.raises(ValueError):
        PlanarPoint(0.0, math.inf)

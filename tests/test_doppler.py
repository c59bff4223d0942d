"""Instantaneous Doppler shift and its on-track envelope.

Independent oracles used for frozen values: Theta from root finding on the
3-D elevation relation, the envelope-accuracy window from a numerical scan
of the normalised error, and the shift itself cross-checked as the finite
difference of the slant range.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from leodoppler.doppler import (
    PassGeometry,
    _shift,
    doppler_bound,
    doppler_exact,
    epsilon_accuracy_offsets,
    gamma_dot,
    theta_of_alpha_max,
)
from leodoppler.geometry import (
    SatelliteConfig,
    angular_velocity_ecf,
    central_angle,
    elevation_from_central_angle,
    orbital_radius,
    slant_range,
)

CFG600 = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3)
W600 = angular_velocity_ecf(CFG600)

# f_c * r_E * omega_F / c, the horizon-grazing on-track magnitude.
CHI_HORIZON_HZ = 49842.95969180119


# ------------------------------------------------------------- Theta ----

def test_theta_overhead_pass_is_one():
    assert theta_of_alpha_max(math.pi / 2, CFG600) == pytest.approx(1.0, rel=1e-15)


def test_theta_horizon_pass_is_radius_ratio():
    assert theta_of_alpha_max(0.0, CFG600) == pytest.approx(
        CFG600.r_e / orbital_radius(CFG600), rel=1e-15
    )


def test_theta_frozen_value_45_degrees():
    # Root-finding oracle on elevation(gamma) = pi/4.
    assert theta_of_alpha_max(math.pi / 4, CFG600) == pytest.approx(
        0.9965786741063137, rel=1e-12
    )


def test_theta_round_trips_through_elevation():
    # gamma_min = arccos(Theta) must reproduce alpha_max as its elevation.
    # Theta flattens quadratically at pi/2, so stop short of the overhead
    # pass where the round trip runs out of double precision.
    for alpha in np.linspace(0.0, math.pi / 2 - 1e-3, 30):
        theta = theta_of_alpha_max(float(alpha), CFG600)
        gamma_min = math.acos(min(theta, 1.0))
        assert elevation_from_central_angle(gamma_min, CFG600) == pytest.approx(
            float(alpha), abs=1e-8
        )


def test_theta_strictly_increasing():
    grid = np.linspace(0.0, math.pi / 2, 200)
    values = [theta_of_alpha_max(float(a), CFG600) for a in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(CFG600.r_e / orbital_radius(CFG600), rel=1e-14)
    assert values[-1] == pytest.approx(1.0, rel=1e-14)


def test_theta_rejects_out_of_range_elevation():
    with pytest.raises(ValueError):
        theta_of_alpha_max(-0.1, CFG600)
    with pytest.raises(ValueError):
        theta_of_alpha_max(2.0, CFG600)


# --------------------------------------------------------- gamma rate ----

def test_gamma_dot_zero_at_closest_approach():
    assert gamma_dot(0.0, 0.95, CFG600) == 0.0


def test_gamma_dot_quarter_phase_scales_with_theta():
    dt = (math.pi / 2) / W600
    assert gamma_dot(dt, 0.9, CFG600) == pytest.approx(0.9 * W600, rel=1e-12)


def test_gamma_dot_on_track_limit():
    assert gamma_dot(10.0, 1.0, CFG600) == W600
    assert gamma_dot(-10.0, 1.0, CFG600) == -W600
    assert gamma_dot(0.0, 1.0, CFG600) == 0.0


def test_gamma_dot_magnitude_never_exceeds_omega():
    rng = np.random.default_rng(5)
    r_o = orbital_radius(CFG600)
    for _ in range(300):
        theta = float(rng.uniform(CFG600.r_e / r_o, 1.0))
        dt = float(rng.uniform(-5000.0, 5000.0))
        assert abs(gamma_dot(dt, theta, CFG600)) <= W600 + 1e-18


# ------------------------------------------------------- exact Doppler ----

def _pass(alpha_max: float) -> PassGeometry:
    return PassGeometry.from_max_elevation(alpha_max, CFG600)


def test_doppler_zero_at_closest_approach():
    assert doppler_exact(0.0, _pass(math.pi / 3), CFG600) == 0.0


def test_doppler_sign_convention():
    pg = _pass(math.pi / 3)
    assert doppler_exact(120.0, pg, CFG600) < 0.0   # receding
    assert doppler_exact(-120.0, pg, CFG600) > 0.0  # approaching


def test_shift_kernel_on_arrays_equals_doppler_exact():
    rng = np.random.default_rng(17)
    passes = [_pass(a) for a in rng.uniform(0.05, math.pi / 2, 40)]
    dt = rng.uniform(-600.0, 600.0, 40)
    theta = np.array([pg.theta for pg in passes])
    slant = np.array([slant_range(t, th, CFG600) for t, th in zip(dt, theta)])
    scalar = [doppler_exact(t, pg, CFG600) for t, pg in zip(dt, passes)]
    assert np.array_equal(_shift(dt * W600, theta, slant, CFG600), scalar)


def test_doppler_on_track_horizon_magnitude():
    # At the horizon crossing of an overhead pass the magnitude collapses
    # to f_c r_E omega_F / c.
    pg = _pass(math.pi / 2)
    dt_horizon = math.acos(CFG600.r_e / orbital_radius(CFG600)) / W600
    assert abs(doppler_exact(dt_horizon, pg, CFG600)) == pytest.approx(
        CHI_HORIZON_HZ, rel=1e-12
    )


def test_doppler_equals_slant_range_finite_difference():
    # chi = -(f_c / c) ds/dt, with ds/dt from a central difference.
    pg = _pass(math.pi / 4)
    eta = 0.05
    for dt in (-900.0, -300.0, -50.0, 40.0, 500.0, 1300.0):
        ds = (
            slant_range(dt + eta, pg.theta, CFG600)
            - slant_range(dt - eta, pg.theta, CFG600)
        ) / (2.0 * eta)
        expected = -(CFG600.f_c / CFG600.c) * ds
        assert doppler_exact(dt, pg, CFG600) == pytest.approx(expected, rel=1e-6)


def _visible_dt_limit(theta: float) -> float:
    # Satellite above the horizon while Theta cos(dt w) >= r_E / r_o.
    k = CFG600.r_e / orbital_radius(CFG600)
    return math.acos(min(k / theta, 1.0)) / W600


def test_doppler_two_forms_agree():
    # Slant-range form versus the gamma-rate/elevation form.
    rng = np.random.default_rng(23)
    for _ in range(500):
        alpha_max = float(rng.uniform(0.0, math.pi / 2))
        pg = _pass(alpha_max)
        dt_max = _visible_dt_limit(pg.theta)
        dt = float(rng.uniform(-dt_max, dt_max))
        gamma = central_angle(dt, pg.theta, CFG600)
        alpha = elevation_from_central_angle(gamma, CFG600)
        via_rate = (
            -(CFG600.f_c * CFG600.r_e / CFG600.c)
            * gamma_dot(dt, pg.theta, CFG600)
            * math.cos(alpha)
        )
        assert doppler_exact(dt, pg, CFG600) == pytest.approx(
            via_rate, rel=1e-9, abs=1e-9
        )


# ----------------------------------------------------------- envelope ----

def test_bound_overhead_is_zero():
    assert doppler_bound(math.pi / 2, CFG600) == pytest.approx(0.0, abs=1e-11)


def test_bound_horizon_frozen_value():
    assert doppler_bound(0.0, CFG600) == pytest.approx(CHI_HORIZON_HZ, rel=1e-12)


def test_bound_is_cosine_shaped():
    assert doppler_bound(math.pi / 3, CFG600) == pytest.approx(
        0.5 * CHI_HORIZON_HZ, rel=1e-12
    )


def test_bound_rejects_bad_elevation():
    with pytest.raises(ValueError):
        doppler_bound(-0.01, CFG600)
    with pytest.raises(ValueError):
        doppler_bound(2.0, CFG600)


def test_bound_dominates_exact_at_same_elevation():
    # For any pass and offset, |exact| <= envelope at the user's own
    # instantaneous elevation; strict off the track away from extremes.
    rng = np.random.default_rng(77)
    for _ in range(1000):
        alpha_max = float(rng.uniform(0.0, math.pi / 2))
        pg = _pass(alpha_max)
        dt_max = _visible_dt_limit(pg.theta)
        dt = float(rng.uniform(-dt_max, dt_max))
        gamma = central_angle(dt, pg.theta, CFG600)
        alpha = elevation_from_central_angle(gamma, CFG600)
        exact = abs(doppler_exact(dt, pg, CFG600))
        envelope = doppler_bound(alpha, CFG600)
        assert exact <= envelope * (1.0 + 1e-12)
        if alpha_max < math.pi / 2 - 0.01 and abs(dt) > 1.0:
            assert exact < envelope


# ----------------------------------------------------- accuracy window ----

def test_epsilon_window_full_tolerance_spans_half_orbit():
    lo, hi = epsilon_accuracy_offsets(1.0, 0.99, CFG600)
    assert lo == 0.0
    assert hi == pytest.approx(math.pi / W600, rel=1e-12)


def test_epsilon_window_frozen_scan_values():
    # Scan oracle: normalised envelope error crosses 0.01 at these offsets
    # for the pi/4 pass at 600 km.
    theta = theta_of_alpha_max(math.pi / 4, CFG600)
    lo, hi = epsilon_accuracy_offsets(0.01, theta, CFG600)
    assert lo == pytest.approx(529.7261979390527, abs=1e-3)
    assert hi == pytest.approx(2149.2135595349864, abs=1e-3)


def test_epsilon_window_matches_error_level_at_edges():
    theta = theta_of_alpha_max(0.6, CFG600)
    eps = 0.05
    lo, hi = epsilon_accuracy_offsets(eps, theta, CFG600)

    def norm_err(dt: float) -> float:
        num = theta * abs(math.sin(dt * W600))
        den = math.sqrt(1.0 - theta**2 * math.cos(dt * W600) ** 2)
        return 1.0 - num / den

    assert norm_err(lo) == pytest.approx(eps, abs=1e-12)
    assert norm_err(hi) == pytest.approx(eps, abs=1e-12)
    # inside the window the error stays below eps
    for dt in np.linspace(lo + 1e-6, hi - 1e-6, 50):
        assert norm_err(float(dt)) <= eps


def test_epsilon_window_no_crossing_cases():
    # Error never reaches down to eps when 1 - eps exceeds Theta.
    assert epsilon_accuracy_offsets(0.001, 0.95, CFG600) is None
    # On-track pass: the envelope is exact, the error never rises to eps.
    assert epsilon_accuracy_offsets(0.01, 1.0, CFG600) is None


def test_epsilon_window_rejects_bad_inputs():
    with pytest.raises(ValueError):
        epsilon_accuracy_offsets(0.0, 0.99, CFG600)
    with pytest.raises(ValueError):
        epsilon_accuracy_offsets(1.5, 0.99, CFG600)
    with pytest.raises(ValueError):
        epsilon_accuracy_offsets(0.1, 0.0, CFG600)


# ---------------------------------------------------------- pass type ----

def test_pass_geometry_caches_consistent_theta():
    pg = PassGeometry.from_max_elevation(0.7, CFG600)
    assert pg.theta == theta_of_alpha_max(0.7, CFG600)
    assert pg.t_alpha_max == 0.0


def test_pass_geometry_validation():
    with pytest.raises(ValueError):
        PassGeometry(alpha_max=-0.1, t_alpha_max=0.0, theta=0.95)
    with pytest.raises(ValueError):
        PassGeometry(alpha_max=0.5, t_alpha_max=0.0, theta=1.2)
    # A non-finite time offset is rejected by name, not turned into NaN.
    pg = PassGeometry.from_max_elevation(0.7, CFG600)
    for dt in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="time offset dt"):
            doppler_exact(dt, pg, CFG600)
        for theta in (0.9, 1.0):
            with pytest.raises(ValueError, match="time offset dt"):
                gamma_dot(dt, theta, CFG600)

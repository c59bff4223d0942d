"""Orbital and spherical-Earth geometry for a circular-orbit LEO satellite.

Everything here is deterministic geometry: orbital radius, the relative
angular velocity seen from the rotating Earth, the Doppler scale A, slant
range, horizon test, central angle and elevation. Clustered users are
placed on the sphere by arc length about the cluster centre, inline in the
Monte Carlo layer.

Units are strictly SI (metres, radians, seconds, hertz) at every interface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Exact by definition (SI).
SPEED_OF_LIGHT_M_S = 299_792_458.0

# Mean Earth radius and sidereal rotation rate.
EARTH_RADIUS_M = 6_371_000.0
EARTH_ANGULAR_VELOCITY_RAD_S = 7.27e-5

# Inverse-trig arguments within this distance outside [-1, 1] are treated as
# floating-point noise and clamped; anything further out is a domain error.
INVERSE_TRIG_CLAMP_TOL = 1e-12

# Accepted lengths (altitude, Earth radius, cluster radius and offset) in
# metres and Doppler scales A in Hz. Squared lengths then stay in [1e-6,
# 5e300] and A^4 in [1e-200, 1e200], so every law is finite from the
# smallest accepted scene to the largest.
MIN_LENGTH_M = 1e-3
MAX_LENGTH_M = 1e150
MIN_DOPPLER_SCALE_HZ = 1e-50
MAX_DOPPLER_SCALE_HZ = 1e50


def _integral(value) -> bool:
    """True for a finite number without a fractional part."""
    try:
        return int(value) == value
    except (OverflowError, TypeError, ValueError):
        return False


def _check_range(name: str, value: float, lo: float, hi: float, unit: str) -> None:
    """Raise ValueError unless lo <= value <= hi (NaN included)."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be at least {lo:g} and at most {hi:g} {unit}, got {value}")


def _check_length(name: str, value: float, lo: float = MIN_LENGTH_M) -> None:
    _check_range(name, value, lo, MAX_LENGTH_M, "m")


class BelowHorizonError(Exception):
    """Raised when the satellite is below the local horizon of a user."""


@dataclass(frozen=True)
class SatelliteConfig:
    """Constellation-independent description of one circular-orbit satellite.

    Attributes:
        f_c: Carrier frequency in Hz.
        h: Orbital altitude above the mean Earth surface in metres.
        omega_s: Orbital angular velocity in rad/s (inertial frame).
        omega_e: Earth rotation rate in rad/s.
        theta_i: Orbital inclination in radians.
        r_e: Earth radius in metres.
    """

    f_c: float
    h: float
    omega_s: float
    omega_e: float = EARTH_ANGULAR_VELOCITY_RAD_S
    theta_i: float = 0.0
    r_e: float = EARTH_RADIUS_M

    def __post_init__(self) -> None:
        if not (self.f_c > 0.0 and math.isfinite(self.f_c)):
            raise ValueError(f"carrier frequency must be positive, got {self.f_c}")
        _check_length("altitude", self.h)
        if not (self.omega_s > 0.0 and math.isfinite(self.omega_s)):
            raise ValueError(f"orbital angular velocity must be positive, got {self.omega_s}")
        if not (self.omega_e >= 0.0 and math.isfinite(self.omega_e)):
            raise ValueError(f"Earth rotation rate must be nonnegative, got {self.omega_e}")
        if not (0.0 <= self.theta_i <= math.pi):
            raise ValueError(f"inclination must lie in [0, pi], got {self.theta_i}")
        _check_length("Earth radius", self.r_e)
        _check_range(
            "Doppler scale A", param_A(self), MIN_DOPPLER_SCALE_HZ, MAX_DOPPLER_SCALE_HZ, "Hz"
        )


@dataclass(frozen=True)
class PlanarPoint:
    """Point in the local tangent plane of the cluster centre, in metres."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"planar coordinates must be finite, got ({self.x}, {self.y})")


def orbital_radius(cfg: SatelliteConfig) -> float:
    """Distance from the Earth centre to the satellite, r_E + h."""
    return cfg.r_e + cfg.h


def angular_velocity_ecf(cfg: SatelliteConfig) -> float:
    """Angular velocity of the satellite relative to the rotating Earth.

    For a circular orbit of inclination theta_i the relative rate is well
    approximated by omega_s + omega_e * cos(theta_i).
    """
    return cfg.omega_s + cfg.omega_e * math.cos(cfg.theta_i)


def param_A(cfg: SatelliteConfig) -> float:
    """Doppler scale A = f_c * r_o * omega_F / c in Hz.

    The magnitude of any user's shift approaches A as the slant path
    flattens; every supported magnitude stays strictly below it.
    """
    return cfg.f_c * orbital_radius(cfg) * angular_velocity_ecf(cfg) / SPEED_OF_LIGHT_M_S


def _pass_phase(dt: float, cfg: SatelliteConfig) -> float:
    """Along-track phase dt * omega_F at time offset dt from peak elevation."""
    phase = dt * angular_velocity_ecf(cfg)
    if not math.isfinite(phase):
        raise ValueError(f"time offset dt must give a finite phase dt * omega_F, got dt = {dt}")
    return phase


def _validate_theta(theta: float) -> float:
    if not math.isfinite(theta) or theta < -INVERSE_TRIG_CLAMP_TOL or theta > 1.0 + INVERSE_TRIG_CLAMP_TOL:
        raise ValueError(f"Theta must lie in [0, 1], got {theta}")
    return min(max(theta, 0.0), 1.0)


def _slant_of_cos(cos_gamma, cfg: SatelliteConfig, out=None):
    """Slant range sqrt(h^2 + 2 r_o r_E (1 - cos(gamma))) in metres, which
    does not cancel: 1 - cos is exact for cos >= 1/2, and cos = 1 gives h.
    out (may be cos_gamma) receives the result."""
    s = np.subtract(1.0, cos_gamma, out=out)
    s = np.multiply(s, 2.0 * orbital_radius(cfg) * cfg.r_e, out=out)
    s = np.add(s, cfg.h**2, out=out)
    return np.sqrt(s, out=out)


def _above_horizon(cos_gamma, cfg: SatelliteConfig, work=None):
    """True where r_o cos(gamma) >= r_E, i.e. the satellite is at or above
    the user's horizon. work, if given, receives r_o cos(gamma)."""
    return np.multiply(orbital_radius(cfg), cos_gamma, out=work) >= cfg.r_e


def slant_range(dt: float, theta: float, cfg: SatelliteConfig) -> float:
    """Distance from user to satellite at time offset dt from peak elevation.

    Args:
        dt: Time offset in seconds from the instant of maximum elevation.
        theta: Pass shape parameter, the cosine of the minimum central angle.
        cfg: Satellite description.

    Returns:
        Slant range in metres. Equals h at dt = 0 for an overhead pass
        (theta = 1) and never exceeds r_E + r_o.
    """
    theta = _validate_theta(theta)
    return float(_slant_of_cos(math.cos(_pass_phase(dt, cfg)) * theta, cfg))


def central_angle(dt: float, theta: float, cfg: SatelliteConfig) -> float:
    """Earth-centre angle between user and sub-satellite point at offset dt."""
    theta = _validate_theta(theta)
    # theta is in [0, 1] and |cos| <= 1, so the product is too: no clamp.
    return math.acos(math.cos(_pass_phase(dt, cfg)) * theta)


def elevation_from_central_angle(gamma: float, cfg: SatelliteConfig) -> float:
    """Elevation angle of the satellite for a user at central angle gamma.

    Args:
        gamma: Central angle in radians, in [0, pi].
        cfg: Satellite description.

    Returns:
        Elevation angle in radians, in [0, pi/2], as atan2(r_o cos(gamma)
        - r_E, r_o sin(gamma)): well conditioned at any angle and altitude.
        The first argument is taken as h cos(gamma) - 2 r_E sin^2(gamma/2),
        which keeps h where r_E + h rounds to r_E, and is floored at 0:
        near the horizon, where the horizon test passes, rounding can make
        it slightly negative.

    Raises:
        BelowHorizonError: If r_o * cos(gamma) < r_E, i.e. the satellite is
            below the user's local horizon.
    """
    if not (0.0 <= gamma <= math.pi):
        raise ValueError(f"central angle must lie in [0, pi], got {gamma}")
    cos_gamma = math.cos(gamma)
    if not _above_horizon(cos_gamma, cfg):
        raise BelowHorizonError(
            f"satellite below horizon at central angle {gamma:.6f} rad"
        )
    rise = cfg.h * cos_gamma - 2.0 * cfg.r_e * math.sin(0.5 * gamma) ** 2
    return math.atan2(max(rise, 0.0), orbital_radius(cfg) * math.sin(gamma))

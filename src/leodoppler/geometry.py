"""Orbital and spherical-Earth geometry for a circular-orbit LEO satellite.

Everything here is deterministic geometry: orbital radius, the relative
angular velocity seen from the rotating Earth, slant range, horizon test,
central angle and elevation. Clustered users are placed on the sphere by
arc length about the cluster centre, inline in the Monte Carlo layer.

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


def _integral(value) -> bool:
    """True for a finite number without a fractional part."""
    try:
        return int(value) == value
    except (OverflowError, TypeError, ValueError):
        return False


class BelowHorizonError(Exception):
    """Raised when the satellite is below the local horizon of a user."""


def clamp_unit(value, tol: float = INVERSE_TRIG_CLAMP_TOL):
    """Clamp an inverse-trig argument to [-1, 1].

    Accepts a scalar or an ndarray. Values within ``tol`` outside the
    interval are clamped; values further out raise ValueError.
    """
    arr = np.asarray(value, dtype=float)
    excess = np.abs(arr) - 1.0
    # Not np.any/np.max/np.clip: their wrappers dominate scalar callers.
    if (excess > tol).any():
        worst = float(excess.max())
        raise ValueError(
            f"inverse-trig argument outside [-1, 1] by {worst:.3e} "
            f"(tolerance {tol:.1e})"
        )
    clipped = np.minimum(np.maximum(arr, -1.0), 1.0)
    if arr.ndim == 0:
        return float(clipped)
    return clipped


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
        c: Propagation speed in m/s.
    """

    f_c: float
    h: float
    omega_s: float
    omega_e: float = EARTH_ANGULAR_VELOCITY_RAD_S
    theta_i: float = 0.0
    r_e: float = EARTH_RADIUS_M
    c: float = SPEED_OF_LIGHT_M_S

    def __post_init__(self) -> None:
        if not (self.f_c > 0.0 and math.isfinite(self.f_c)):
            raise ValueError(f"carrier frequency must be positive, got {self.f_c}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"altitude must be positive, got {self.h}")
        if not (self.omega_s > 0.0 and math.isfinite(self.omega_s)):
            raise ValueError(f"orbital angular velocity must be positive, got {self.omega_s}")
        if not (self.omega_e >= 0.0 and math.isfinite(self.omega_e)):
            raise ValueError(f"Earth rotation rate must be nonnegative, got {self.omega_e}")
        if not (0.0 <= self.theta_i <= math.pi):
            raise ValueError(f"inclination must lie in [0, pi], got {self.theta_i}")
        if not (self.r_e > 0.0 and math.isfinite(self.r_e)):
            raise ValueError(f"Earth radius must be positive, got {self.r_e}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"propagation speed must be positive, got {self.c}")


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


def _validate_theta(theta: float) -> float:
    if not math.isfinite(theta) or theta < -INVERSE_TRIG_CLAMP_TOL or theta > 1.0 + INVERSE_TRIG_CLAMP_TOL:
        raise ValueError(f"Theta must lie in [0, 1], got {theta}")
    return min(max(theta, 0.0), 1.0)


def _slant_of_cos(cos_gamma, cfg: SatelliteConfig, out=None):
    """Slant range sqrt(r_E^2 + r_o^2 - 2 r_o r_E cos(gamma)) in metres;
    out (may be cos_gamma) receives the result."""
    r_o = orbital_radius(cfg)
    s = np.multiply(cos_gamma, 2.0 * r_o * cfg.r_e, out=out)
    s = np.subtract(cfg.r_e**2 + r_o**2, s, out=out)
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
    return float(_slant_of_cos(math.cos(dt * angular_velocity_ecf(cfg)) * theta, cfg))


def central_angle(dt: float, theta: float, cfg: SatelliteConfig) -> float:
    """Earth-centre angle between user and sub-satellite point at offset dt."""
    theta = _validate_theta(theta)
    return math.acos(clamp_unit(math.cos(dt * angular_velocity_ecf(cfg)) * theta))


def elevation_from_central_angle(gamma: float, cfg: SatelliteConfig) -> float:
    """Elevation angle of the satellite for a user at central angle gamma.

    Args:
        gamma: Central angle in radians, in [0, pi].
        cfg: Satellite description.

    Returns:
        Elevation angle in radians, in [0, pi/2].

    Raises:
        BelowHorizonError: If r_o * cos(gamma) < r_E, i.e. the satellite is
            below the user's local horizon.
    """
    if not (0.0 <= gamma <= math.pi):
        raise ValueError(f"central angle must lie in [0, pi], got {gamma}")
    cos_gamma = math.cos(gamma)
    vertical = orbital_radius(cfg) * cos_gamma - cfg.r_e
    if vertical < 0.0:
        raise BelowHorizonError(
            f"satellite below horizon at central angle {gamma:.6f} rad"
        )
    return math.asin(clamp_unit(vertical / _slant_of_cos(cos_gamma, cfg)))

"""Instantaneous Doppler shift of a LEO downlink and its on-track envelope.

A pass is fully described by the cosine of its minimum central angle,
Theta = cos(gamma_min), reached at the instant of maximum elevation. The
exact Doppler shift follows from the slant-range rate; users located on the
ground track (Theta = 1) attain the envelope value, which depends only on
the instantaneous elevation angle and therefore bounds every other user at
the same elevation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SatelliteConfig,
    _pass_phase,
    angular_velocity_ecf,
    clamp_unit,
    orbital_radius,
    slant_range,
)


@dataclass(frozen=True)
class PassGeometry:
    """One satellite pass as seen by one user.

    Attributes:
        alpha_max: Maximum elevation of the pass, radians, in [0, pi/2].
        t_alpha_max: Epoch of maximum elevation in seconds; time offsets dt
            are measured from this instant.
        theta: Cosine of the minimum central angle, cached from alpha_max.
    """

    alpha_max: float
    t_alpha_max: float
    theta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha_max <= math.pi / 2.0):
            raise ValueError(f"alpha_max must lie in [0, pi/2], got {self.alpha_max}")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"Theta must lie in (0, 1], got {self.theta}")

    @classmethod
    def from_max_elevation(
        cls, alpha_max: float, cfg: SatelliteConfig, t_alpha_max: float = 0.0
    ) -> "PassGeometry":
        """Build a pass from its maximum elevation, deriving Theta."""
        return cls(alpha_max, t_alpha_max, theta_of_alpha_max(alpha_max, cfg))


def theta_of_alpha_max(alpha_max: float, cfg: SatelliteConfig) -> float:
    """Pass shape parameter Theta for a given maximum elevation.

    Theta = cos(arccos((r_E / r_o) * cos(alpha_max)) - alpha_max). It grows
    strictly from r_E / r_o for a horizon-grazing pass to 1 for an overhead
    pass.
    """
    if not (0.0 <= alpha_max <= math.pi / 2.0):
        raise ValueError(f"alpha_max must lie in [0, pi/2], got {alpha_max}")
    k = cfg.r_e / orbital_radius(cfg)
    return math.cos(math.acos(clamp_unit(k * math.cos(alpha_max))) - alpha_max)


def gamma_dot(dt: float, theta: float, cfg: SatelliteConfig) -> float:
    """Rate of change of the central angle at time offset dt.

    For theta = 1 the expression degenerates; the limit is +/- omega_F with
    the sign of sin(dt * omega_F), and 0 at dt = 0 by convention.

    Returns:
        d(gamma)/dt in rad/s, always within (-omega_F, omega_F] in magnitude.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"Theta must lie in (0, 1], got {theta}")
    omega_f = angular_velocity_ecf(cfg)
    phase = _pass_phase(dt, cfg)
    sin_phase = math.sin(phase)
    if theta == 1.0:
        if sin_phase == 0.0:
            return 0.0
        return math.copysign(omega_f, sin_phase)
    return omega_f * theta * sin_phase / math.sqrt(1.0 - theta**2 * math.cos(phase) ** 2)


def _shift(phase, theta, slant, cfg: SatelliteConfig, out=None):
    """Exact shift -(f_c / c) r_E r_o omega_F sin(phase) theta / slant in Hz
    (Ali, Al-Dhahir & Hershey, IEEE Trans. Commun. 46(3), 1998): phase =
    dt * omega_F, theta = cos(cross-track angle); out may be phase."""
    k = -(cfg.f_c / cfg.c) * cfg.r_e * orbital_radius(cfg) * angular_velocity_ecf(cfg)
    chi = np.sin(phase, out=out)
    chi = np.multiply(chi, k, out=out)
    chi = np.multiply(chi, theta, out=out)
    return np.divide(chi, slant, out=out)


def doppler_exact(dt: float, pass_geometry: PassGeometry, cfg: SatelliteConfig) -> float:
    """Exact Doppler shift in Hz at time offset dt from maximum elevation.

    Negative while the satellite recedes (dt > 0), positive while it
    approaches (dt < 0), zero at closest approach.
    """
    s = slant_range(dt, pass_geometry.theta, cfg)
    return float(_shift(_pass_phase(dt, cfg), pass_geometry.theta, s, cfg))


def doppler_bound(alpha_t: float, cfg: SatelliteConfig) -> float:
    """Doppler magnitude of an on-track user at instantaneous elevation alpha_t.

    A user on the ground track sees |shift| = (f_c * r_E * omega_F / c)
    * cos(alpha_t); every user at the same elevation sees no more than this,
    so the value serves as an upper envelope.

    Returns:
        Doppler magnitude in Hz, nonnegative.
    """
    if not (0.0 <= alpha_t <= math.pi / 2.0):
        raise ValueError(f"elevation must lie in [0, pi/2], got {alpha_t}")
    return cfg.f_c * cfg.r_e * angular_velocity_ecf(cfg) * math.cos(alpha_t) / cfg.c


def epsilon_accuracy_offsets(
    epsilon: float, theta: float, cfg: SatelliteConfig
) -> tuple[float, float] | None:
    """Time window around a pass where the on-track envelope is epsilon-tight.

    The envelope's normalised error (envelope - |exact|) / envelope equals
    epsilon at two offsets from the instant of maximum elevation. Between
    them the error stays below epsilon.

    Args:
        epsilon: Normalised error level, in (0, 1].
        theta: Pass shape parameter, in (0, 1].
        cfg: Satellite description.

    Returns:
        (t_near, t_far) in seconds, the |dt| interval where the envelope is
        epsilon-accurate; the window is symmetric about dt = 0. None when
        the error never crosses epsilon: either 1 - epsilon > theta (the
        envelope is never that tight for this pass) or theta = 1 (the
        envelope is exact at all times).
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"Theta must lie in (0, 1], got {theta}")
    if theta == 1.0:
        return None
    remainder = 1.0 - epsilon
    if remainder > theta:
        return None
    omega_f = angular_velocity_ecf(cfg)
    if epsilon == 1.0:
        inner = 1.0
    else:
        inner = math.sqrt((1.0 - remainder**2 / theta**2) / (1.0 - remainder**2))
    inner = clamp_unit(inner)
    return math.acos(inner) / omega_f, math.acos(-inner) / omega_f

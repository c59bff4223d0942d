"""Closed-form distribution of the Doppler magnitude over a user cluster.

Users are uniform on a planar disk of radius rho whose centre sits at
planar distance r_hat from the sub-satellite point. The distance M from a
uniform point of the disk to the sub-satellite point has a piecewise
closed-form law (a disk-and-circle lens area). The Doppler magnitude of a
user at distance z is x = A * z / sqrt(h^2 + z^2), a strictly increasing
map, so the magnitude law follows from the distance law by a change of
variables. Order statistics over N independent users and the closed
overhead special case (r_hat = 0) come with it.

All functions accept scalars or ndarrays for the evaluation point and are
strict about SI units (metres, hertz). A NaN evaluation point raises
ValueError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    MAX_DOPPLER_SCALE_HZ,
    MIN_DOPPLER_SCALE_HZ,
    SatelliteConfig,
    _check_length,
    _check_range,
    _integral,
    param_A,
)

_QUANTILE_TOL_HZ = 1e-6
# Bisection halves the bracket until it is at most max(1e-6 Hz, two float
# spacings at its top); from a top below 2^1024 Hz that takes under 1100
# steps, so the cap only guards against a bracket that stops shrinking.
_QUANTILE_MAX_STEPS = 1100


@dataclass(frozen=True)
class DiskDistanceDistribution:
    """Distance from a uniform point in a disk to a fixed external point.

    Attributes:
        radius: Disk radius in metres, in [MIN_LENGTH_M, MAX_LENGTH_M].
        offset: Distance of the fixed point from the disk centre, metres,
            in [0, MAX_LENGTH_M].
    """

    radius: float
    offset: float

    def __post_init__(self) -> None:
        _check_length("disk radius", self.radius)
        _check_length("offset", self.offset, lo=0.0)


def _eval_points(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("evaluation point is NaN")
    return np.atleast_1d(arr), arr.ndim == 0


def _scalar_or_array(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _lens_angle(rl: np.ndarray, off: float, R: float) -> np.ndarray:
    # Half-angle at the fixed point of the arc of radius rl inside the disk.
    # The cosine lies in [-1, 1] by construction, so rounding past it is
    # clipped; a denominator that underflows to 0 takes the limit, 0.
    den = 2.0 * off * rl
    cos = np.divide(rl**2 + off**2 - R**2, den, out=np.zeros_like(rl), where=den > 0.0)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def disk_distance_cdf(r, d: DiskDistanceDistribution):
    """CDF of the distance to the fixed point, evaluated at r.

    Piecewise: (r / R)^2 while the circle of radius r around the fixed
    point lies inside the disk, a lens-area ratio while the two circles
    intersect, 0 below the reachable range and exactly 1 from R + offset
    on. The inner breakpoint belongs to the closed branch on its left.
    """
    rr, scalar = _eval_points(r)
    if np.any(rr < 0.0):
        raise ValueError("distance must be nonnegative")
    R, off = d.radius, d.offset
    out = np.zeros_like(rr)
    hi = R + off
    out[rr >= hi] = 1.0
    if off < R:
        inner = rr <= R - off
        out[inner] = (rr[inner] / R) ** 2
    lens = (rr > abs(R - off)) & (rr < hi)
    if np.any(lens):
        rl = rr[lens]
        theta = _lens_angle(rl, off, R)
        phi = np.arccos(np.clip((R**2 + off**2 - rl**2) / (2.0 * off * R), -1.0, 1.0))
        area = (rl**2 / (math.pi * R**2)) * (theta - 0.5 * np.sin(2.0 * theta)) + (
            phi - 0.5 * np.sin(2.0 * phi)
        ) / math.pi
        # Cancellation can push the ratio ~1e-9 past 1 when off << R, or a
        # few ulps below the inner branch's value at r = R - off; F at that
        # breakpoint bounds the lens branch from below.
        floor = ((R - off) / R) ** 2 if off < R else 0.0
        out[lens] = np.clip(area, floor, 1.0)
    return _scalar_or_array(out, scalar)


def disk_distance_pdf(r, d: DiskDistanceDistribution):
    """Density of the distance to the fixed point, evaluated at r."""
    rr, scalar = _eval_points(r)
    if np.any(rr < 0.0):
        raise ValueError("distance must be nonnegative")
    R, off = d.radius, d.offset
    out = np.zeros_like(rr)
    if off < R:
        inner = rr <= R - off
        out[inner] = 2.0 * rr[inner] / R**2
    lens = (rr > abs(R - off)) & (rr <= R + off)
    if np.any(lens):
        rl = rr[lens]
        out[lens] = 2.0 * rl * _lens_angle(rl, off, R) / (math.pi * R**2)
    return _scalar_or_array(out, scalar)


@dataclass(frozen=True)
class DopplerMagnitudeDistribution:
    """Law of the Doppler magnitude for one uniformly placed cluster user.

    Attributes:
        a: Doppler scale A in Hz, in [MIN_DOPPLER_SCALE_HZ,
            MAX_DOPPLER_SCALE_HZ].
        h: Satellite altitude in metres, in [MIN_LENGTH_M, MAX_LENGTH_M].
        rho: Cluster disk radius in metres, in [MIN_LENGTH_M, MAX_LENGTH_M].
        r_hat: Planar distance of the sub-satellite point from the cluster
            centre, metres, in [0, MAX_LENGTH_M]. Canonical parameter;
            construction from a slant range converts to it.
    """

    a: float
    h: float
    rho: float
    r_hat: float

    def __post_init__(self) -> None:
        _check_range("Doppler scale A", self.a, MIN_DOPPLER_SCALE_HZ, MAX_DOPPLER_SCALE_HZ, "Hz")
        _check_length("altitude", self.h)
        _check_length("cluster radius", self.rho)
        _check_length("centre offset", self.r_hat, lo=0.0)

    @classmethod
    def for_satellite(
        cls, cfg: SatelliteConfig, rho: float, r_hat: float
    ) -> "DopplerMagnitudeDistribution":
        """Build from a satellite description and planar centre offset."""
        return cls(param_A(cfg), cfg.h, rho, r_hat)

    @classmethod
    def from_slant_range(
        cls, cfg: SatelliteConfig, rho: float, s_t: float
    ) -> "DopplerMagnitudeDistribution":
        """Build from the slant range to the cluster centre.

        The planar offset is recovered as sqrt(s_t^2 - h^2); s_t must be at
        least the altitude.
        """
        if s_t < cfg.h:
            raise ValueError(
                f"slant range {s_t} m is shorter than the altitude {cfg.h} m"
            )
        return cls(param_A(cfg), cfg.h, rho, math.sqrt(s_t**2 - cfg.h**2))

    def _disk(self) -> DiskDistanceDistribution:
        return DiskDistanceDistribution(self.rho, self.r_hat)

    def cdf(self, x):
        return doppler_cdf(x, self)

    def pdf(self, x):
        return doppler_pdf(x, self)

    def quantile(self, p):
        return doppler_quantile(p, self)


def _magnitude_at_distance(z, dist: DopplerMagnitudeDistribution, out=None, work=None):
    """Envelope magnitude A z / sqrt(h^2 + z^2) at planar distance z >= 0;
    out (may be z) receives the result and work sqrt(h^2 + z^2)."""
    slant = np.hypot(dist.h, z, out=work)
    x = np.multiply(z, dist.a, out=out)
    return np.divide(x, slant, out=out)


def _distance_of_magnitude(
    x: np.ndarray,
    dist: DopplerMagnitudeDistribution,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    # Inverse of _magnitude_at_distance; callers guarantee x < A. Computed
    # as (h x) / sqrt(A^2 - x^2); out receives the result and work (a
    # temporary if not given) sqrt(A^2 - x^2).
    den = np.square(x, out=work)
    np.subtract(dist.a**2, den, out=den)
    np.sqrt(den, out=den)
    num = np.multiply(dist.h, x, out=out)
    return np.divide(num, den, out=num)


def doppler_support_max(dist: DopplerMagnitudeDistribution) -> float:
    """Largest supported Doppler magnitude, attained at the far disk edge."""
    return float(_magnitude_at_distance(dist.r_hat + dist.rho, dist))


def doppler_support_min(dist: DopplerMagnitudeDistribution) -> float:
    """Smallest supported magnitude; 0 unless the disk excludes the
    sub-satellite point (r_hat > rho)."""
    return float(_magnitude_at_distance(max(0.0, dist.r_hat - dist.rho), dist))


def doppler_cdf(x, dist: DopplerMagnitudeDistribution):
    """CDF of the Doppler magnitude at x >= 0 Hz."""
    xx, scalar = _eval_points(x)
    if np.any(xx < 0.0):
        raise ValueError("Doppler magnitude must be nonnegative")
    out = np.ones_like(xx)
    below = xx < doppler_support_max(dist)
    if np.any(below):
        z = _distance_of_magnitude(xx[below], dist)
        out[below] = disk_distance_cdf(z, dist._disk())
    return _scalar_or_array(out, scalar)


def doppler_pdf(x, dist: DopplerMagnitudeDistribution):
    """Density of the Doppler magnitude at x >= 0 Hz, 0 outside the support."""
    xx, scalar = _eval_points(x)
    if np.any(xx < 0.0):
        raise ValueError("Doppler magnitude must be nonnegative")
    out = np.zeros_like(xx)
    inside = xx < doppler_support_max(dist)
    if np.any(inside):
        xi = xx[inside]
        z = _distance_of_magnitude(xi, dist)
        jacobian = dist.h * dist.a**2 / (dist.a**2 - xi**2) ** 1.5
        out[inside] = jacobian * disk_distance_pdf(z, dist._disk())
    return _scalar_or_array(out, scalar)


def doppler_quantile(p, dist: DopplerMagnitudeDistribution):
    """Smallest magnitude x with CDF(x) >= p, by bisection.

    Bisection stops once the bracket is at most 1e-6 Hz wide, or two float
    spacings at its top where those exceed 1e-6 Hz. p = 0 returns the lower
    support edge, p = 1 the upper one.
    """
    pp, scalar = _eval_points(p)
    if np.any((pp < 0.0) | (pp > 1.0)):
        raise ValueError("probability must lie in [0, 1]")
    lo_edge = doppler_support_min(dist)
    hi_edge = doppler_support_max(dist)
    lo = np.full_like(pp, lo_edge)
    hi = np.full_like(pp, hi_edge)
    interior = (pp > 0.0) & (pp < 1.0)
    # Entries still bisecting; each leaves once its own bracket is narrow
    # enough, so an array call equals the scalar call for every entry.
    active = np.flatnonzero(interior)
    for _ in range(_QUANTILE_MAX_STEPS):
        tol = np.maximum(_QUANTILE_TOL_HZ, 2.0 * np.spacing(hi[active]))
        active = active[(hi[active] - lo[active]) > tol]
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        reached = doppler_cdf(mid, dist) >= pp[active]
        hi[active[reached]] = mid[reached]
        lo[active[~reached]] = mid[~reached]
    out = np.where(interior, hi, np.where(pp == 0.0, lo_edge, hi_edge))
    return _scalar_or_array(out, scalar)


def _order_statistic(
    x, dist: DopplerMagnitudeDistribution, n: int, minimum: bool, density: bool
):
    """CDF or density of the minimum or maximum magnitude over n independent
    users, from the single-user CDF F and density f: 1 - (1 - F)^n and
    n (1 - F)^(n - 1) f for the minimum, F^n and n F^(n - 1) f for the
    maximum."""
    if not (_integral(n) and n >= 1):
        raise ValueError(f"cluster size n must be a positive integer, got {n}")
    n = int(n)
    f = np.asarray(doppler_cdf(x, dist))
    base = 1.0 - f if minimum else f
    if density:
        out = n * base ** (n - 1) * np.asarray(doppler_pdf(x, dist))
    else:
        out = 1.0 - base**n if minimum else base**n
    return float(out) if out.ndim == 0 else out


def min_doppler_cdf(x, dist: DopplerMagnitudeDistribution, n: int):
    """CDF of the minimum magnitude over n independent users."""
    return _order_statistic(x, dist, n, minimum=True, density=False)


def min_doppler_pdf(x, dist: DopplerMagnitudeDistribution, n: int):
    """Density of the minimum magnitude over n independent users."""
    return _order_statistic(x, dist, n, minimum=True, density=True)


def max_doppler_cdf(x, dist: DopplerMagnitudeDistribution, n: int):
    """CDF of the maximum magnitude over n independent users."""
    return _order_statistic(x, dist, n, minimum=False, density=False)


def max_doppler_pdf(x, dist: DopplerMagnitudeDistribution, n: int):
    """Density of the maximum magnitude over n independent users."""
    return _order_statistic(x, dist, n, minimum=False, density=True)


def _require_overhead(dist: DopplerMagnitudeDistribution) -> None:
    if dist.r_hat != 0.0:
        raise ValueError(
            f"overhead form requires the sub-satellite point at the cluster "
            f"centre (r_hat = 0), got r_hat = {dist.r_hat}"
        )


def overhead_cdf(x, dist: DopplerMagnitudeDistribution):
    """Closed-form CDF for a satellite directly over the cluster centre.

    F(x) = (h^2 / rho^2) * x^2 / (A^2 - x^2) on the support
    [0, A / sqrt(1 + h^2 / rho^2)]; 1 above it.
    """
    _require_overhead(dist)
    xx, scalar = _eval_points(x)
    if np.any(xx < 0.0):
        raise ValueError("Doppler magnitude must be nonnegative")
    out = np.ones_like(xx)
    below = xx < doppler_support_max(dist)
    xb = xx[below]
    out[below] = (dist.h**2 / dist.rho**2) * xb**2 / (dist.a**2 - xb**2)
    return _scalar_or_array(out, scalar)


def overhead_pdf(x, dist: DopplerMagnitudeDistribution):
    """Closed-form density for a satellite directly over the cluster centre.

    f(x) = (2 A^2 h^2 / rho^2) * x / (A^2 - x^2)^2 on the support, 0 above.
    """
    _require_overhead(dist)
    xx, scalar = _eval_points(x)
    if np.any(xx < 0.0):
        raise ValueError("Doppler magnitude must be nonnegative")
    out = np.zeros_like(xx)
    below = xx < doppler_support_max(dist)
    xb = xx[below]
    # Grouped so that no factor overflows anywhere in the accepted scales.
    out[below] = 2.0 * (dist.h / dist.rho) ** 2 * xb * (dist.a / (dist.a**2 - xb**2)) ** 2
    return _scalar_or_array(out, scalar)

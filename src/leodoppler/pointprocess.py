"""Matern-style cluster sampling of ground users on the tangent plane.

Cluster parents form a Poisson process over a circular cell; each parent
carries a fixed number of daughter users placed uniformly on a disk around
it. Sampling is driven by a caller-supplied numpy Generator so that runs
are reproducible bit for bit, and daughters falling outside the cell are
kept (the serving geometry, not the cell boundary, decides relevance).

The uniform-disk map reduces each angle to a quarter turn, takes one sine
there (the cosine follows by a square root) and turns the result back
exactly, so the offsets differ from r (cos, sin)(2 pi u) of the full angle
by at most about 8e-16 of the radius: the same draws give the same points
up to the last bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlanarPoint, _check_count, _check_length

_CSV_HEADER = "cluster_id,user_id,x_m,y_m"


@dataclass(frozen=True)
class CellModel:
    """Cell-level cluster process description.

    Attributes:
        r_cell: Cell radius in metres, in [MIN_LENGTH_M, MAX_LENGTH_M].
        lambda_c: Parent intensity in parents per square metre (> 0).
        rho: Cluster disk radius in metres, in [MIN_LENGTH_M, r_cell].
        n: Number of users per cluster (>= 1).
    """

    r_cell: float
    lambda_c: float
    rho: float
    n: int

    def __post_init__(self) -> None:
        _check_length("cell radius", self.r_cell)
        if not (self.lambda_c > 0.0 and math.isfinite(self.lambda_c)):
            raise ValueError(f"parent intensity must be positive, got {self.lambda_c}")
        _check_length("cluster radius", self.rho)
        if self.rho > self.r_cell:
            raise ValueError(
                f"cluster radius must be at most r_cell, got {self.rho} "
                f"with r_cell {self.r_cell}"
            )
        object.__setattr__(self, "n", _check_count("users per cluster n", self.n))


@dataclass(frozen=True)
class ClusterSample:
    """One sampled cluster: its centre and an (N, 2) array of user positions."""

    center: PlanarPoint
    users: np.ndarray

    def __post_init__(self) -> None:
        if self.users.ndim != 2 or self.users.shape[1] != 2 or self.users.shape[0] < 1:
            raise ValueError(f"users must be a nonempty (N, 2) array, got {self.users.shape}")


def _disk_points(u_radius, u_angle, rho: float, x, y, work) -> None:
    """Uniform area law: offsets at radius r = rho * sqrt(u_radius) and
    angle 2 pi u_angle go to x and y. u_angle and work (may be u_radius)
    are overwritten.

    The angle is first reduced to a quadrant: q = rint(4 u) and d = (4 u -
    q) pi / 2, so |d| <= pi / 4 and 4 u - q is exact, which keeps sin on
    its short path and cos d = sqrt(1 - sin^2 d) accurate. The offset is r
    (cos d, sin d) turned by q pi / 2, whose coefficients a = cos(q pi / 2)
    and b = -sin(q pi / 2) lie in {0, +-1}; with sign = +-1 and odd = q mod
    2 they are a = sign (1 - odd) and b = sign odd. The sign rides on r,
    and odd swaps the two coordinates by exact arithmetic (each product is
    a copy or a zero), so the points u in {0, 1/4, 1/2, 3/4} land exactly
    on the axes.
    """
    turns = np.multiply(u_angle, 4.0, out=x)
    q = np.rint(turns, out=u_angle)
    d = np.subtract(turns, q, out=x)
    d *= 0.5 * math.pi
    # |q - 1.5| - 1 is negative exactly for q in {1, 2}, where the sign is -1.
    sign = np.subtract(q, 1.5, out=y)
    np.abs(sign, out=sign)
    sign -= 1.0
    radii = np.sqrt(u_radius, out=work)
    radii *= rho
    np.copysign(radii, sign, out=radii)
    # odd = 1 - ||q - 2| - 1|.
    odd = np.subtract(q, 2.0, out=u_angle)
    np.abs(odd, out=odd)
    odd -= 1.0
    np.abs(odd, out=odd)
    np.subtract(1.0, odd, out=odd)
    np.sin(d, out=y)
    # |d| <= pi / 4 keeps cos d >= 0.7, so sqrt(1 - sin^2 d) gives it to
    # rounding without a second libm call.
    np.square(y, out=x)
    np.subtract(1.0, x, out=x)
    np.sqrt(x, out=x)
    x *= radii
    y *= radii
    # (x, y) becomes (x, y) where odd is 0 and (y, -x) where it is 1.
    odd_y = np.multiply(odd, y, out=work)
    y -= odd_y
    odd *= x
    y -= odd
    x -= odd
    x += odd_y


def _disk_offsets(rho: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 2) offsets uniform on the disk; radii are drawn before angles."""
    u_radius, xy = rng.random(count), np.empty((count, 2))
    _disk_points(u_radius, rng.random(count), rho, xy[:, 0], xy[:, 1], u_radius)
    return xy


def sample_uniform_disk(
    center: PlanarPoint, rho: float, n: int, rng: np.random.Generator
) -> ClusterSample:
    """Sample one cluster of n users uniform on the disk of radius rho.

    Args:
        center: Cluster centre on the tangent plane.
        rho: Disk radius in metres, in [MIN_LENGTH_M, MAX_LENGTH_M].
        n: Number of users (>= 1).
        rng: Source of randomness; identical generator state reproduces the
            sample bit for bit.
    """
    _check_length("disk radius", rho)
    n = _check_count("user count n", n)
    users = _disk_offsets(rho, n, rng) + np.array([center.x, center.y])
    return ClusterSample(center, users)


def sample_cell(model: CellModel, rng: np.random.Generator) -> list[ClusterSample]:
    """Sample one cell realisation.

    The number of parents is Poisson with mean lambda_c * pi * r_cell^2;
    parents are uniform on the cell disk and each carries model.n daughter
    users uniform on its own disk of radius model.rho. Daughters are kept
    even when they land outside the cell. All daughters are drawn at once,
    after the parents.
    """
    mean_parents = model.lambda_c * math.pi * model.r_cell**2
    n_parents = int(rng.poisson(mean_parents))
    centres = _disk_offsets(model.r_cell, n_parents, rng)
    users = _disk_offsets(model.rho, n_parents * model.n, rng).reshape(n_parents, model.n, 2)
    users += centres[:, np.newaxis, :]
    return [
        ClusterSample(PlanarPoint(float(cx), float(cy)), cluster)
        for (cx, cy), cluster in zip(centres, users)
    ]


def distances_to_point(sample: ClusterSample, q: PlanarPoint) -> np.ndarray:
    """Euclidean distances from every user of the cluster to the point q."""
    return np.hypot(sample.users[:, 0] - q.x, sample.users[:, 1] - q.y)


def dump_clusters_csv(clusters: list[ClusterSample], path) -> None:
    """Write sampled users as CSV rows cluster_id,user_id,x_m,y_m."""
    lines = [_CSV_HEADER]
    for cluster_id, cluster in enumerate(clusters):
        for user_id, (x, y) in enumerate(cluster.users):
            lines.append(f"{cluster_id},{user_id},{x:.9g},{y:.9g}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

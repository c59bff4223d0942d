"""Monte Carlo check of the closed-form Doppler law on exact sphere geometry.

The closed form treats the neighbourhood of the cluster as a plane and the
on-track envelope as the user's Doppler. This module replays the same
scenario without those approximations: users are drawn uniformly on the
cluster disk, mapped onto the sphere about the cluster centre, and their
exact Doppler follows from their own pass geometry (cross-track angle beta,
along-track phase to the sub-satellite point). Comparing the empirical laws
of the exact shift and of the planar envelope against the analytic CDF
quantifies both Monte Carlo agreement and the envelope's pessimism.

Sampling is split into fixed chunks with independent child seeds; each
worker thread takes every k-th chunk. A worker draws its chunks' users in
batches of at most 2^16 and reduces each batch at once to integer counts of
samples at or below a fixed set of edges: the report grid plus up to 2^16
edges spread evenly in planar distance over the cluster. Integer sums do
not depend on their order, so results are identical for any worker count,
and memory is O(edges + batch) whatever the number of users. The grid
columns are exact. The KS distances are upper bounds computed from the
counts and the analytic CDF at the edges; each exceeds the exact statistic
by at most one bin's probability mass.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DopplerMagnitudeDistribution,
    doppler_cdf,
    doppler_support_max,
    param_A,
)
from .geometry import (
    BelowHorizonError,
    PlanarPoint,
    SatelliteConfig,
    angular_velocity_ecf,
    orbital_radius,
)

# Trials are distributed over this many independently seeded chunks
# (fewer when there are fewer trials). Fixed so that outputs do not
# depend on the number of workers.
_N_CHUNKS = 64

# Users drawn and binned at once; small enough for the batch's arrays to
# stay in cache, large enough that per-call overhead is small.
_BATCH = 1 << 16

# The KS edges number ceil(64 sqrt(n)) for n users, at most 2^16: enough to
# keep the bracket far inside the sampling error 1/sqrt(n), few enough that
# small runs stay cheap.
_KS_EDGES_PER_SQRT_N = 64
_MAX_KS_EDGES = 1 << 16

# Largest run accepted: n_users * trials users (1e9 take about 5 minutes
# on one core) and a report grid of this many points.
MAX_USERS = 10**9
MAX_GRID_POINTS = 10**6

_REPORT_CSV_HEADER = "x_hz,cdf_analytic,cdf_emp_exact,cdf_emp_bound"


def _integral(value) -> bool:
    """True for a finite number without a fractional part."""
    try:
        return int(value) == value
    except (OverflowError, TypeError, ValueError):
        return False


@dataclass(frozen=True)
class ScenarioConfig:
    """Frozen serving scene for one Monte Carlo comparison.

    Attributes:
        cfg: Satellite description.
        rho: Cluster disk radius in metres (> 0).
        r_hat: Planar distance from cluster centre to sub-satellite point
            (>= 0); rho + r_hat may not exceed the tangent-plane validity
            radius pi * r_E / 4.
        n_users: Users per trial (>= 1).
        trials: Number of cluster realisations (>= 1); n_users * trials is
            at most MAX_USERS.
        seed: 64-bit seed for the sample streams.
        cluster_center_on_track: True places the sub-satellite point on the
            ground track through the cluster centre at along-track distance
            r_hat; False instead passes the ground track abeam the centre at
            cross-track distance r_hat (closest approach).
    """

    cfg: SatelliteConfig
    rho: float
    r_hat: float
    n_users: int
    trials: int
    seed: int
    cluster_center_on_track: bool = True

    def __post_init__(self) -> None:
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ValueError(f"cluster radius must be positive, got {self.rho}")
        if not (self.r_hat >= 0.0 and math.isfinite(self.r_hat)):
            raise ValueError(f"centre offset must be nonnegative, got {self.r_hat}")
        limit = math.pi * self.cfg.r_e / 4.0
        if self.rho + self.r_hat > limit:
            raise ValueError(
                f"cluster reaches {self.rho + self.r_hat:.1f} m from the sub-satellite "
                f"point, beyond the tangent-plane validity radius {limit:.1f} m"
            )
        if not (_integral(self.n_users) and self.n_users >= 1):
            raise ValueError(f"users per trial must be a positive integer, got {self.n_users}")
        if not (_integral(self.trials) and self.trials >= 1):
            raise ValueError(f"trial count must be a positive integer, got {self.trials}")
        if self.n_users * self.trials > MAX_USERS:
            raise ValueError(
                f"n_users * trials must be at most {MAX_USERS}, "
                f"got {self.n_users} * {self.trials}"
            )
        if not (_integral(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF over a sorted sample array."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("empirical CDF needs a nonempty 1-d sample array")
        if np.any(np.diff(self.samples) < 0.0):
            raise ValueError("samples must be sorted ascending")

    @classmethod
    def from_samples(cls, values) -> "EmpiricalCdf":
        arr = np.sort(np.asarray(values, dtype=float))
        return cls(arr)

    def evaluate(self, x):
        """Fraction of samples <= x; accepts scalars or arrays."""
        counts = np.searchsorted(self.samples, x, side="right")
        out = counts / self.samples.size
        return float(out) if np.ndim(x) == 0 else out


def ks_distance(ecdf: EmpiricalCdf, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical and an analytic CDF.

    Evaluates sup over the sample points of max(|i/n - F(x_i)|,
    |(i-1)/n - F(x_i)|) with the samples in ascending order. This is the
    exact statistic that run_scenario's binned upper bound brackets.
    """
    f = np.asarray(cdf(ecdf.samples), dtype=float)
    n = ecdf.samples.size
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(steps_hi - f), np.abs(steps_lo - f))))


@dataclass(frozen=True)
class ComparisonReport:
    """Grid-wise comparison of analytic and empirical Doppler laws.

    Attributes:
        x_hz: Evaluation grid in Hz.
        cdf_analytic: Closed-form CDF on the grid.
        cdf_emp_exact: Empirical CDF of the exact spherical Doppler magnitude.
        cdf_emp_bound: Empirical CDF of the planar envelope magnitude.
        ks_bound: Upper bound on the KS distance, envelope samples vs
            analytic CDF; above the exact statistic by at most one bin's
            probability mass.
        ks_exact: The same upper bound for the exact samples.
        dominance_violations: Grid points where the analytic CDF exceeds the
            exact empirical CDF by more than three binomial standard errors.
        excluded: Users dropped because the satellite sat below their horizon.
    """

    x_hz: np.ndarray
    cdf_analytic: np.ndarray
    cdf_emp_exact: np.ndarray
    cdf_emp_bound: np.ndarray
    ks_bound: float
    ks_exact: float
    dominance_violations: int
    excluded: int


def _sub_satellite_xy(scenario: ScenarioConfig) -> tuple[float, float]:
    if scenario.cluster_center_on_track:
        return scenario.r_hat, 0.0
    return 0.0, scenario.r_hat


def _pass_angles(
    x: np.ndarray, y: np.ndarray, scenario: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-track angle beta and along-track phase delta for each user.

    The phase is the along-track angle from the user's closest-approach
    point to the sub-satellite point, i.e. delta = dt * omega_F of the
    frozen scene.
    """
    r_e = scenario.cfg.r_e
    if scenario.cluster_center_on_track:
        beta = y / r_e
        delta = (scenario.r_hat - x) / r_e
    else:
        beta = (scenario.r_hat - y) / r_e
        delta = -x / r_e
    return beta, delta


def _exact_doppler_xy(
    x: np.ndarray, y: np.ndarray, scenario: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Exact signed Doppler per user and a visibility mask."""
    cfg = scenario.cfg
    r_o = orbital_radius(cfg)
    omega_f = angular_velocity_ecf(cfg)
    beta, delta = _pass_angles(x, y, scenario)
    theta = np.cos(beta)
    cos_gamma = theta * np.cos(delta)
    visible = r_o * cos_gamma >= cfg.r_e
    s = np.sqrt(cfg.r_e**2 + r_o**2 - 2.0 * r_o * cfg.r_e * cos_gamma)
    chi = -(cfg.f_c / cfg.c) * cfg.r_e * r_o * omega_f * np.sin(delta) * theta / s
    return chi, visible


def _bound_doppler_xy(x: np.ndarray, y: np.ndarray, scenario: ScenarioConfig) -> np.ndarray:
    """Planar envelope magnitude per user."""
    sx, sy = _sub_satellite_xy(scenario)
    z = np.hypot(x - sx, y - sy)
    return param_A(scenario.cfg) * z / np.hypot(scenario.cfg.h, z)


def exact_doppler_for_user(p: PlanarPoint, scenario: ScenarioConfig) -> float:
    """Exact signed Doppler in Hz of a single user at planar position p.

    Raises:
        BelowHorizonError: If the satellite is below this user's horizon.
    """
    chi, visible = _exact_doppler_xy(np.array([p.x]), np.array([p.y]), scenario)
    if not visible[0]:
        raise BelowHorizonError(
            f"satellite below horizon for user at ({p.x}, {p.y})"
        )
    return float(chi[0])


def bound_doppler_for_user(p: PlanarPoint, scenario: ScenarioConfig) -> float:
    """Planar envelope magnitude in Hz for a user at planar position p."""
    out = _bound_doppler_xy(np.array([p.x]), np.array([p.y]), scenario)
    return float(out[0])


def _chunk_jobs(scenario: ScenarioConfig) -> list[tuple[np.random.SeedSequence, int]]:
    """(child seed, trials) of each chunk, in chunk order."""
    n_chunks = min(scenario.trials, _N_CHUNKS)
    base, extra = divmod(scenario.trials, n_chunks)
    seeds = np.random.SeedSequence(scenario.seed).spawn(n_chunks)
    return [(seed, base + (1 if i < extra else 0)) for i, seed in enumerate(seeds)]


def _uniform_batches(jobs: list, n_users: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The chunks' uniform draws, packed into batches of at most _BATCH users.

    Chunk k contributes the same numbers as rng.random(count) twice with
    rng = default_rng(seed_k) and count = trials_k * n_users: the first
    draw to the radius column, the second to the angle column. The angles
    come from a second generator advanced past the radius draws, so a chunk
    can be split across batches. The two columns are reused buffers, valid
    until the next batch is requested.
    """
    size = min(_BATCH, n_users * sum(trials for _, trials in jobs))
    radius, angle = np.empty(size), np.empty(size)
    filled = 0
    for child_seed, trials in jobs:
        count = trials * n_users
        radius_rng = np.random.default_rng(child_seed)
        angle_bits = np.random.PCG64(child_seed)
        angle_bits.advance(count)
        angle_rng = np.random.Generator(angle_bits)
        while count:
            take = min(count, size - filled)
            radius_rng.random(out=radius[filled : filled + take])
            angle_rng.random(out=angle[filled : filled + take])
            filled += take
            count -= take
            if filled == size:
                yield radius, angle
                filled = 0
    if filled:
        yield radius[:filled], angle[:filled]


def _batch_magnitudes(
    scenario: ScenarioConfig, u_radius: np.ndarray, u_angle: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact and envelope magnitudes of a batch's visible users, and the
    number of users that could not see the satellite."""
    radii = scenario.rho * np.sqrt(u_radius)
    angles = 2.0 * math.pi * u_angle
    x = radii * np.cos(angles)
    y = radii * np.sin(angles)
    chi, visible = _exact_doppler_xy(x, y, scenario)
    bound = _bound_doppler_xy(x, y, scenario)
    return np.abs(chi[visible]), bound[visible], int(visible.size - np.count_nonzero(visible))


def _add_counts(acc: np.ndarray, edges: np.ndarray, values: np.ndarray) -> None:
    """Add to acc[j] the number of values in (edges[j-1], edges[j]].

    acc has one slot more than edges, for values above the last edge.
    Sorting first makes the search walk the edges in order, which is far
    faster than searching for values in random order.
    """
    values.sort()
    counts = np.bincount(np.searchsorted(edges, values, side="left"))
    acc[: counts.size] += counts


def _count_chunks(
    scenario: ScenarioConfig, edges: np.ndarray, jobs: list
) -> tuple[np.ndarray, int]:
    """Bin counts (exact row, envelope row) and exclusions over some chunks."""
    acc = np.zeros((2, edges.size + 1), dtype=np.int64)
    excluded = 0
    for u_radius, u_angle in _uniform_batches(jobs, scenario.n_users):
        exact, bound, hidden = _batch_magnitudes(scenario, u_radius, u_angle)
        _add_counts(acc[0], edges, exact)
        _add_counts(acc[1], edges, bound)
        excluded += hidden
    return acc, excluded


def _ks_edges(dist: DopplerMagnitudeDistribution, users: int) -> np.ndarray:
    """Magnitudes at distances spread evenly over the disk's distance range.

    Even spacing in distance rather than in Hz keeps every bin's mass small
    where the magnitude map x = A z / sqrt(h^2 + z^2) flattens.
    """
    m = min(_MAX_KS_EDGES, math.ceil(_KS_EDGES_PER_SQRT_N * math.sqrt(users)))
    z = np.linspace(max(0.0, dist.r_hat - dist.rho), dist.r_hat + dist.rho, m)
    return dist.a * z / np.hypot(dist.h, z)


def _ks_upper(cum: np.ndarray, n: int, cdf: np.ndarray) -> float:
    """Upper bound on sup |F_n - F| from cumulative counts at the edges.

    cum[j] samples lie at or below edge j and cdf[j] is F there. Between
    two edges both laws are monotone, so with C_j = cum[j] / n padded by 0
    and 1 outside the edges the bound is
    max_j max(C_j - F_{j-1}, F_j - C_{j-1}).
    """
    emp = np.concatenate(([0.0], cum / n, [1.0]))
    law = np.concatenate(([0.0], cdf, [1.0]))
    return float(max(np.max(emp[1:] - law[:-1]), np.max(law[1:] - emp[:-1])))


def run_scenario(
    scenario: ScenarioConfig,
    threads: int = 1,
    grid_points: int = 512,
    x_max: float | None = None,
) -> ComparisonReport:
    """Sample the scenario and compare empirical laws against the closed form.

    Args:
        scenario: Frozen serving scene.
        threads: Worker threads; any value yields identical results. At most
            one thread per chunk is started.
        grid_points: Number of grid abscissae (2 to MAX_GRID_POINTS).
        x_max: Upper grid limit in Hz; defaults to the analytic support top.

    Returns:
        ComparisonReport with per-grid CDF columns and summary statistics.
    """
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    if not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(
            f"grid needs 2 to {MAX_GRID_POINTS} points, got {grid_points}"
        )
    dist = DopplerMagnitudeDistribution.for_satellite(
        scenario.cfg, scenario.rho, scenario.r_hat
    )
    grid_top = doppler_support_max(dist) if x_max is None else float(x_max)
    grid = np.linspace(0.0, grid_top, grid_points)
    cdf_analytic = np.asarray(doppler_cdf(grid, dist))
    users = scenario.n_users * scenario.trials
    ks_edges = _ks_edges(dist, users)
    edges = np.sort(np.concatenate((grid, ks_edges)))

    jobs = _chunk_jobs(scenario)
    workers = min(threads, len(jobs))
    if workers == 1:
        parts = [_count_chunks(scenario, edges, jobs)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda w: _count_chunks(scenario, edges, jobs[w::workers]),
                    range(workers),
                )
            )
    cum = np.cumsum(sum(acc for acc, _ in parts), axis=1)
    excluded = sum(hidden for _, hidden in parts)
    if excluded == users:
        raise ValueError("satellite below horizon for every sampled user")
    n = users - excluded
    cum_exact, cum_bound = cum
    at_grid = np.searchsorted(edges, grid)
    at_ks = np.searchsorted(edges, ks_edges)
    ks_cdf = np.asarray(doppler_cdf(ks_edges, dist))
    cdf_emp_exact = cum_exact[at_grid] / n
    cdf_emp_bound = cum_bound[at_grid] / n
    gate = 3.0 * np.sqrt(cdf_analytic * (1.0 - cdf_analytic) / n)
    violations = int(np.sum(cdf_analytic > cdf_emp_exact + gate))
    return ComparisonReport(
        x_hz=grid,
        cdf_analytic=cdf_analytic,
        cdf_emp_exact=cdf_emp_exact,
        cdf_emp_bound=cdf_emp_bound,
        ks_bound=_ks_upper(cum_bound[at_ks], n, ks_cdf),
        ks_exact=_ks_upper(cum_exact[at_ks], n, ks_cdf),
        dominance_violations=violations,
        excluded=excluded,
    )


def write_report_csv(report: ComparisonReport, path) -> None:
    """Write the grid columns as CSV with 9 significant digits."""
    lines = [_REPORT_CSV_HEADER]
    for x, fa, fe, fb in zip(
        report.x_hz, report.cdf_analytic, report.cdf_emp_exact, report.cdf_emp_bound
    ):
        lines.append(f"{x:.9g},{fa:.9g},{fe:.9g},{fb:.9g}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(report: ComparisonReport, path) -> None:
    """Write summary statistics as key=value lines."""
    lines = [
        f"ks_bound={report.ks_bound:.9g}",
        f"ks_exact={report.ks_exact:.9g}",
        f"violations={report.dominance_violations}",
        f"excluded={report.excluded}",
    ]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

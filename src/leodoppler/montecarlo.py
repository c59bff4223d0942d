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
batches of at most 2^16 and counts each batch at once into the bins of up
to 2^16 KS edges, spread evenly in planar distance over the cluster; a
sample whose KS bin is mixed (holds a grid point strictly inside) is also
counted in its report grid bin. Both families are evenly spaced in a known
coordinate (distance, Hz), so a bin is guessed in O(1) and checked against
the edges on either side; only samples that fail the check are searched
for. An envelope sample's KS bin is guessed from the user's own distance,
an exact one's from the distance at which the envelope takes its value.
Once per run, each grid column is the unmixed KS bins up to the grid point
plus the mixed bins' grid counts up to it. Integer sums do not depend on
their order, so results are identical for any worker count, and memory is
O(edges + batch) whatever the number of users: each worker holds six
float rows of its batch length (3 MiB at 2^16), the draws in two of them,
and int32 counts, and run_scenario allocates them all before any worker
starts, so that glibc's per-thread arenas do not keep them. The grid
columns are exact.
The KS distances are upper bounds from the counts and the analytic CDF at
the edges, above the exact statistic by at most one bin's mass.

Users' positions come from the disk map shared with pointprocess, and
their distances to the sub-satellite point are sqrt(x^2 + y^2). A user
costs three libm calls: the disk map's sine, the cosine of the
cross-track angle and the sine of the along-track phase. The other
cosines are sqrt(1 - sin^2), accurate because the quarter turn and the
validity radius keep both angles within pi / 4, and the envelope's slant
is sqrt(z^2 + h^2). Against cos/sin of the full angles and hypot,
per-user magnitudes differ in the last bits only; every CLI output file
stayed byte-identical.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DopplerMagnitudeDistribution,
    _distance_of_magnitude,
    _distance_span,
    _magnitude_at_distance,
    doppler_cdf,
    doppler_support_max,
)
from .doppler import _shift
from .geometry import SatelliteConfig, _above_horizon, _integral, _slant_of_cos
from .pointprocess import _disk_points

# Trials are distributed over this many independently seeded chunks
# (fewer when there are fewer trials). Fixed so that outputs do not
# depend on the number of workers.
_N_CHUNKS = 64

# Users drawn and binned at once. Each worker reuses six float64 rows of
# this length (3 MiB at 2^16) for all its batches.
# Every numpy call covers a whole batch, which keeps the per-call overhead
# and the threads' waits for the interpreter lock between calls small:
# 2^15 was about 9 % slower on 2 threads.
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


@dataclass(frozen=True)
class ScenarioConfig:
    """Frozen serving scene for one Monte Carlo comparison.

    Attributes:
        cfg: Satellite description.
        rho: Cluster disk radius in metres, in [MIN_LENGTH_M, MAX_LENGTH_M].
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
        grid_points: Number of report grid abscissae (2 to MAX_GRID_POINTS).
    """

    cfg: SatelliteConfig
    rho: float
    r_hat: float
    n_users: int
    trials: int
    seed: int
    cluster_center_on_track: bool = True
    grid_points: int = 512

    def __post_init__(self) -> None:
        # Building the law checks rho and r_hat (and A, via cfg).
        self.law
        limit = math.pi * self.cfg.r_e / 4.0
        if self.rho + self.r_hat > limit:
            raise ValueError(
                f"cluster reaches {self.rho + self.r_hat:.1f} m from the sub-satellite "
                f"point, beyond the tangent-plane validity radius {limit:.1f} m"
            )
        if not (_integral(self.n_users) and self.n_users >= 1):
            raise ValueError(f"n_users must be a positive integer, got {self.n_users}")
        if not (_integral(self.trials) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer, got {self.trials}")
        if self.n_users * self.trials > MAX_USERS:
            raise ValueError(
                f"n_users * trials must be at most {MAX_USERS}, "
                f"got {self.n_users} * {self.trials}"
            )
        if not (_integral(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (_integral(self.grid_points) and 2 <= self.grid_points <= MAX_GRID_POINTS):
            raise ValueError(
                f"grid_points must be 2 to {MAX_GRID_POINTS}, got {self.grid_points}"
            )
        # Whole floats pass the checks above; the sampler needs ints.
        for key in ("n_users", "trials", "seed", "grid_points"):
            object.__setattr__(self, key, int(getattr(self, key)))

    @property
    def law(self) -> DopplerMagnitudeDistribution:
        """Closed-form magnitude law of the scene, built on each read."""
        return DopplerMagnitudeDistribution.for_satellite(self.cfg, self.rho, self.r_hat)


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
        return cls(np.sort(np.asarray(values, dtype=float)))

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


def _chunk_jobs(scenario: ScenarioConfig) -> list[tuple[np.random.SeedSequence, int]]:
    """(child seed, trials) of each chunk, in chunk order."""
    n_chunks = min(scenario.trials, _N_CHUNKS)
    base, extra = divmod(scenario.trials, n_chunks)
    seeds = np.random.SeedSequence(scenario.seed).spawn(n_chunks)
    return [(seed, base + (1 if i < extra else 0)) for i, seed in enumerate(seeds)]


def _batch_size(jobs: list, n_users: int) -> int:
    """Users per batch: _BATCH, or all users when there are fewer."""
    return min(_BATCH, n_users * sum(trials for _, trials in jobs))


def _uniform_batches(
    jobs: list, n_users: int, radius: np.ndarray, angle: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The chunks' uniform draws, packed into batches of at most _BATCH users.

    Chunk k contributes the same numbers as rng.random(count) twice with
    rng = default_rng(seed_k) and count = trials_k * n_users: the first
    draw to the radius column, the second to the angle column. The angles
    come from a second generator advanced past the radius draws, so a chunk
    can be split across batches. The columns are the first _batch_size
    entries of the caller's rows radius and angle, rewritten for every
    batch; the consumer may overwrite them before it asks for the next.
    """
    size = _batch_size(jobs, n_users)
    radius, angle = radius[:size], angle[:size]
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
    scenario: ScenarioConfig,
    dist: DopplerMagnitudeDistribution,
    u_radius: np.ndarray,
    u_angle: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Write a batch's magnitudes into work's rows; return who is visible.

    dist is scenario.law and work is a (6, >= batch) float array. Over
    the batch's first n entries, row 0 then holds the exact magnitudes and
    row 1 the planar distance at which the envelope takes each of them
    (its inverse map); row 3 holds the envelope magnitudes and row 2 each
    user's own distance to the sub-satellite point. Rows 4 and 5 are free.
    The draws may be rows 4 and 5, which the disk map reads first; they,
    u_radius and u_angle are overwritten. The returned boolean mask is
    True for users that see the satellite; the others' values are
    meaningless.
    """
    n = u_radius.size
    cfg = scenario.cfg
    x, y, z, bound, s, scratch = (row[:n] for row in work)
    _disk_points(u_radius, u_angle, scenario.rho, x, y, u_radius)
    # Each user's offset to the sub-satellite point. The ground track runs
    # along x, so over r_E the offset is the along-track phase dt * omega_F
    # from the user's closest approach and the cross-track angle beta.
    sx, sy = _sub_satellite_xy(scenario)
    np.subtract(sx, x, out=x)
    np.subtract(sy, y, out=y)
    # |x| and |y| stay below pi r_E / 4 + rho, so the squares cannot overflow.
    np.square(x, out=z)
    np.square(y, out=s)
    z += s
    np.sqrt(z, out=z)
    _magnitude_at_distance(z, dist, out=bound, work=scratch)
    phase, theta = x, y
    phase /= cfg.r_e
    theta /= cfg.r_e
    np.cos(theta, out=theta)
    sin_phase = np.sin(phase, out=phase)
    # The validity radius keeps |phase| <= pi / 4, so cos(phase) >= 0.7 is
    # sqrt(1 - sin^2) to rounding.
    np.square(sin_phase, out=s)
    np.subtract(1.0, s, out=s)
    np.sqrt(s, out=s)
    s *= theta
    visible = _above_horizon(s, cfg, work=scratch)
    chi = _shift(sin_phase, theta, _slant_of_cos(s, cfg, out=s), cfg, out=sin_phase)
    np.abs(chi, out=chi)
    # An exact magnitude at or above A has no distance; the NaN it gets
    # only makes the index search for that value.
    with np.errstate(invalid="ignore", divide="ignore"):
        _distance_of_magnitude(chi, dist, out=theta, work=s)
    return visible


def _ks_edges(dist: DopplerMagnitudeDistribution, users: int) -> np.ndarray:
    """Magnitudes at distances spread evenly over the disk's distance range.

    Even spacing in distance rather than in Hz keeps every bin's mass small
    where the magnitude map x = A z / sqrt(h^2 + z^2) flattens. The sort
    guards the order against rounding; it is a no-op in practice.
    """
    m = min(_MAX_KS_EDGES, math.ceil(_KS_EDGES_PER_SQRT_N * math.sqrt(users)))
    z = np.linspace(*_distance_span(dist), m)
    return np.sort(_magnitude_at_distance(z, dist, out=z))


class _EdgeIndex:
    """Bin index of values among one sorted family of edges.

    index(values, c, out) equals np.searchsorted(edges, values, side="left")
    for every float, NaN and +-inf included: bin j is (edges[j-1], edges[j]]
    with the edges padded by -inf and +inf. The edges are spread evenly in
    a coordinate c, from c_lo at the first edge to c_hi at the last, and
    each value comes with its own c. The bin is guessed as
    ceil((c - c_lo) * scale) clipped to [0, edges.size] and kept only if
    the edges on either side bracket the value; c may be off by rounding,
    or be any float at all, without changing the result. Values that fail
    the check are searched for.
    """

    def __init__(self, edges: np.ndarray, c_lo: float, c_hi: float) -> None:
        self._padded = np.concatenate(([-np.inf], edges, [np.inf]))
        self.edges = self._padded[1:-1]
        self._c_lo = c_lo
        with np.errstate(all="ignore"):
            self._scale = np.float64(edges.size - 1) / (c_hi - c_lo)

    def __call__(self, values: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Bin indices of values in out[:values.size]; c is overwritten.

        The guesses lie inside the padded edges, so mode="clip" never changes
        an index; it lets np.take write into c without a temporary copy.
        """
        j = out[: values.size]
        with np.errstate(all="ignore"):
            c -= self._c_lo
            c *= self._scale
        np.ceil(c, out=c)
        np.fmax(c, 0.0, out=c)
        np.fmin(c, self.edges.size, out=c)
        np.copyto(j, c, casting="unsafe")
        hit = np.take(self._padded, j, out=c, mode="clip") < values
        hit &= values <= np.take(self._padded[1:], j, out=c, mode="clip")
        miss = np.flatnonzero(~hit)
        if miss.size:
            j[miss] = np.searchsorted(self.edges, values[miss], side="left")
        return j


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
    x_max: float | None = None,
) -> ComparisonReport:
    """Sample the scenario and compare empirical laws against the closed form.

    Args:
        scenario: Frozen serving scene.
        threads: Worker threads; any value yields identical results. At most
            one thread per chunk is started.
        x_max: Upper grid limit in Hz; defaults to the analytic support top.

    Returns:
        ComparisonReport with per-grid CDF columns and summary statistics.
    """
    if not (_integral(threads) and threads >= 1):
        raise ValueError(f"thread count must be a positive integer, got {threads}")
    if x_max is not None and not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    dist = scenario.law
    grid_top = doppler_support_max(dist) if x_max is None else float(x_max)
    grid = np.linspace(0.0, grid_top, scenario.grid_points)
    cdf_analytic = np.asarray(doppler_cdf(grid, dist))
    users = scenario.n_users * scenario.trials
    ks_index = _EdgeIndex(_ks_edges(dist, users), *_distance_span(dist))
    ks_edges = ks_index.edges
    grid_index = _EdgeIndex(grid, 0.0, grid_top)
    # KS bin j is mixed when a grid point lies strictly inside it.
    padded = ks_index._padded
    mixed = np.searchsorted(grid, padded[1:]) > np.searchsorted(grid, padded[:-1], "right")

    jobs = _chunk_jobs(scenario)
    workers = min(int(threads), len(jobs))
    shares = [jobs[w::workers] for w in range(workers)]
    # Every worker's batch rows and counts, allocated here before any
    # worker starts. Allocated per batch, rows cost 5e4-1e5 page faults per
    # 1e7 users. Allocated in the worker thread, they came from glibc's
    # per-thread arenas, which keep their pages after the run: at 1e6 users
    # on 2 threads, peak RSS grew by about 5 MiB from the first of four runs
    # to the last; allocated here, by about 1 MiB. A worker whose share is
    # smaller uses the leading part of its rows. Counts are int32: none
    # exceeds MAX_USERS < 2^31.
    batch = max(_batch_size(share, scenario.n_users) for share in shares)
    rows = np.empty((workers, 6, batch))
    ks_acc = np.zeros((workers, 2, ks_edges.size + 1), dtype=np.int32)
    grid_acc = np.zeros((workers, 2, grid.size + 1), dtype=np.int32)

    def count(w: int) -> int:
        """Add worker w's per-bin counts of the KS edges to ks_acc[w] and,
        for values in mixed KS bins, of the grid to grid_acc[w] (rows:
        exact, envelope), over its chunks; return its exclusions. Its float
        rows are rewritten by every batch: the draws go to rows 4 and 5,
        which then hold the mixed values and, as intp, the bin indices. A
        batch with every user visible allocates only masks, under one row.
        """
        work, ks_counts, grid_counts = rows[w], ks_acc[w], grid_acc[w]
        # An int32 one keeps np.add.at on its fast loop; a Python 1 is 25x slower.
        values_out, bins, one = work[4], work[5].view(np.intp), np.int32(1)

        def add_counts(
            row: int, values: np.ndarray, z: np.ndarray, visible: np.ndarray | None
        ) -> None:
            # Compacted here, so that the copies go before the next batch.
            if visible is not None:
                values, z = values[visible], z[visible]
            j = ks_index(values, z, bins)
            np.add.at(ks_counts[row], j, one)
            inside = np.take(mixed, j)
            n_mixed = np.count_nonzero(inside)
            if n_mixed:
                # The mixed values (in row 4 unless all are mixed), and a
                # copy in z (free again) that the grid index overwrites
                # with guesses.
                if n_mixed < values.size:
                    values = np.compress(inside, values, out=values_out[:n_mixed])
                c = z[:n_mixed]
                np.copyto(c, values)
                np.add.at(grid_counts[row], grid_index(values, c, bins), one)

        excluded = 0
        for u_radius, u_angle in _uniform_batches(shares[w], scenario.n_users, work[4], work[5]):
            n = u_radius.size
            visible = _batch_magnitudes(scenario, dist, u_radius, u_angle, work)
            hidden = n - int(np.count_nonzero(visible))
            excluded += hidden
            mask = visible if hidden else None
            add_counts(1, work[3, :n], work[2, :n], mask)
            add_counts(0, work[0, :n], work[1, :n], mask)
        return excluded

    if workers == 1:
        excluded = count(0)
    else:
        # Imported here: concurrent.futures pulls in logging, about 10 ms
        # of start-up that the single-curve CLI commands never need.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            excluded = sum(pool.map(count, range(workers)))
    # Freed before the CDF pass at the KS edges, which can reuse the memory.
    del rows
    ks_counts, grid_counts = (acc.sum(axis=0, dtype=np.int32) for acc in (ks_acc, grid_acc))
    if excluded == users:
        raise ValueError("satellite below horizon for every sampled user")
    n = users - excluded
    # Samples at or below grid point g: the unmixed KS bins' up to the last
    # KS edge <= g (below[:, i] sums those before bin i) plus the grid
    # counts up to g. Tables as large as the KS edges, but for the edges
    # and their counts, go before the CDF pass.
    below = np.zeros((2, ks_edges.size + 2), dtype=np.int32)
    np.multiply(ks_counts, ~mixed, out=below[:, 1:])
    np.cumsum(below, axis=1, dtype=np.int32, out=below)
    cum_grid = below[:, np.searchsorted(ks_edges, grid, "right")]
    cum_grid += np.cumsum(grid_counts[:, :-1], axis=1, dtype=np.int32)
    del below, mixed, padded, ks_index, grid_index, ks_acc, grid_acc
    cum_ks = np.cumsum(ks_counts, axis=1, dtype=np.int32, out=ks_counts)[:, :-1]
    ks_cdf = np.asarray(doppler_cdf(ks_edges, dist))
    cdf_emp_exact = cum_grid[0] / n
    gate = 3.0 * np.sqrt(cdf_analytic * (1.0 - cdf_analytic) / n)
    violations = int(np.sum(cdf_analytic > cdf_emp_exact + gate))
    return ComparisonReport(
        x_hz=grid,
        cdf_analytic=cdf_analytic,
        cdf_emp_exact=cdf_emp_exact,
        cdf_emp_bound=cum_grid[1] / n,
        ks_bound=_ks_upper(cum_ks[1], n, ks_cdf),
        ks_exact=_ks_upper(cum_ks[0], n, ks_cdf),
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

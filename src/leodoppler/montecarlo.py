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
of k workers takes every k-th chunk, worker 0 on the calling thread and
the others on k - 1 started threads. A worker draws its chunks' users in
batches of at most 2^15 and counts each batch at once into the bins of
one sorted array: up to 2^16 KS edges, spread evenly in planar distance
over the cluster, merged with the report grid. Each family is evenly
spaced in a known coordinate (distance, Hz), so a sample's bin, its
place among the KS edges plus its place in the grid, is guessed in O(1)
and checked against the edges on either side; only samples that fail the
check are searched for. An envelope sample's KS place is guessed from
the user's own distance, an exact one's from the distance at which the
envelope takes its value. Once per run, one cumulative sum gives the
grid columns and the KS edges' counts. Integer sums do not depend on
their order, so all workers add to one table of int32 counts, one add at
a time under a lock, and results are identical for any worker count.
Memory is O(edges + batch) whatever the number of users: each worker
holds only four float rows of its batch length (1 MiB at 2^15) and a
batch's masks; the rows and the counts are allocated before any worker
starts, and no pass after sampling holds more than the freed rows. The
grid columns are exact. The KS distances are upper bounds from the
counts and the analytic CDF at the edges, above the exact statistic by
at most one bin's mass.

Users' positions come from the disk map shared with pointprocess, and
their distances to the sub-satellite point are sqrt(x^2 + y^2). A user
costs three libm calls: the disk map's sine, the cosine of the
cross-track angle and the sine of the along-track phase. The other
cosines are sqrt(1 - sin^2), accurate because the quarter turn and the
validity radius keep both angles within pi / 4, and the envelope's slant
is sqrt(z^2 + h^2).
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from threading import Lock, Thread

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
from .geometry import SatelliteConfig, _above_horizon, _check_count, _slant_of_versin
from .pointprocess import _disk_points

# Trials are distributed over this many independently seeded chunks
# (fewer when there are fewer trials). Fixed so that outputs do not
# depend on the number of workers.
_N_CHUNKS = 64

# Users drawn and binned at once; each worker reuses four float64 rows of
# this length (1 MiB at 2^15), which with a batch's masks is all that an
# added worker holds. A speed-for-memory trade, measured with six
# rows: at 1e7 users on 2 threads, 2^15 took 3.3 MiB less peak RSS than
# 2^16 and about 10 % more time per run, as more numpy calls per user mean
# more waits for the interpreter lock; 2^14 was 35-45 % slower.
_BATCH = 1 << 15

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
        # Building the law, which is kept, checks rho and r_hat (and A, via cfg).
        self.law
        limit = math.pi * self.cfg.r_e / 4.0
        if self.rho + self.r_hat > limit:
            raise ValueError(
                f"cluster reaches {self.rho + self.r_hat:.1f} m from the sub-satellite "
                f"point, beyond the tangent-plane validity radius {limit:.1f} m"
            )
        for key, lo, hi in (
            ("n_users", 1, None),
            ("trials", 1, None),
            ("seed", 0, 2**64 - 1),
            ("grid_points", 2, MAX_GRID_POINTS),
        ):
            object.__setattr__(self, key, _check_count(key, getattr(self, key), lo, hi))
        if self.n_users * self.trials > MAX_USERS:
            raise ValueError(
                f"n_users * trials must be at most {MAX_USERS}, "
                f"got {self.n_users} * {self.trials}"
            )

    @cached_property
    def law(self) -> DopplerMagnitudeDistribution:
        """Closed-form magnitude law of the scene, built once."""
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


def _chunk_jobs(scenario: ScenarioConfig) -> list[tuple[np.random.SeedSequence, int]]:
    """(child seed, trials) of each chunk, in chunk order."""
    n_chunks = min(scenario.trials, _N_CHUNKS)
    base, extra = divmod(scenario.trials, n_chunks)
    seeds = np.random.SeedSequence(scenario.seed).spawn(n_chunks)
    return [(seed, base + (1 if i < extra else 0)) for i, seed in enumerate(seeds)]


def _uniform_batches(
    jobs: list, n_users: int, radius: np.ndarray, angle: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The chunks' uniform draws, packed into batches of radius.size users.

    Chunk k contributes the same numbers as rng.random(count) twice with
    rng = default_rng(seed_k) and count = trials_k * n_users: the first
    draw to the radius column, the second to the angle column. The angles
    come from a second generator advanced past the radius draws, so a chunk
    can be split across batches. The columns are the caller's rows radius
    and angle (of equal size), rewritten for every batch; the last batch
    fills only their leading entries. The consumer may overwrite them
    before it asks for the next.
    """
    size, filled = radius.size, 0
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
    u_radius: np.ndarray,
    u_angle: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Write a batch's magnitudes into work's rows; return who is visible.

    work is a (4, >= batch) float array. Over the batch's first n entries,
    row 0 then holds the exact magnitudes, row 1 the planar distance at
    which the envelope takes each of them (its inverse map) and row 2 each
    user's own distance to the sub-satellite point, from which
    _magnitude_at_distance gives the envelope. Row 3 is free. The draws may
    be rows 2 and 3, which the disk map reads first; they, u_radius and
    u_angle are overwritten. The returned boolean mask is True for users
    that see the satellite; the others' values are meaningless.
    """
    n = u_radius.size
    cfg = scenario.cfg
    x, y, z, s = (row[:n] for row in work)
    _disk_points(u_radius, u_angle, scenario.rho, x, y, u_radius)
    # Each user's offset to the sub-satellite point, r_hat along x (on
    # track) or y. The ground track runs along x, so over r_E the offset is
    # the along-track phase dt * omega_F from the user's closest approach
    # and the cross-track angle beta. The axis without r_hat keeps the
    # user's sign, the opposite of the offset's: only its square, cos beta
    # and |shift| reach the rows, and numpy's sin is odd and cos even, bit
    # for bit.
    axis = x if scenario.cluster_center_on_track else y
    np.subtract(scenario.r_hat, axis, out=axis)
    # |x| and |y| stay below pi r_E / 4 + rho, so the squares cannot overflow.
    np.square(x, out=z)
    np.square(y, out=s)
    z += s
    np.sqrt(z, out=z)
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
    versin = np.subtract(1.0, s, out=s)
    visible = _above_horizon(versin, cfg)
    chi = _shift(sin_phase, theta, _slant_of_versin(versin, cfg, out=s), cfg, out=sin_phase)
    np.abs(chi, out=chi)
    # An exact magnitude at or above A has no distance; the NaN it gets
    # only makes the index search for that value.
    with np.errstate(invalid="ignore", divide="ignore"):
        _distance_of_magnitude(chi, scenario.law, out=theta, work=s)
    return visible


def _ks_edges(dist: DopplerMagnitudeDistribution, users: int, grid=()) -> np.ndarray:
    """Magnitudes at distances spread evenly over the disk's distance range,
    then the grid, padded by -inf before and +inf after.

    Even spacing in distance rather than in Hz keeps every bin's mass small
    where the magnitude map x = A z / sqrt(h^2 + z^2) flattens. The
    magnitudes are written into the padded array, and the distances hold
    the slant once A z is formed, so only the distances are a temporary;
    allocated last, they go back to the top of the heap, where the run's
    next tables reuse them. The in-place sort guards the magnitudes' order
    against rounding; it is a no-op in practice.
    """
    m = min(_MAX_KS_EDGES, math.ceil(_KS_EDGES_PER_SQRT_N * math.sqrt(users)))
    padded = np.empty(m + len(grid) + 2)
    padded[0], padded[-1] = -np.inf, np.inf
    padded[m + 1 : -1] = grid
    z = np.linspace(*_distance_span(dist), m)
    _magnitude_at_distance(z, dist, out=padded[1 : m + 1], work=z).sort()
    return padded


class _EdgeIndex:
    """Bin index of values among the KS edges and the report grid, merged.

    index(values, c, out) equals np.searchsorted(edges, values, side="left")
    for every float, NaN and +-inf included: bin j is (edges[j-1], edges[j]]
    with the sorted edges padded by -inf and +inf, which the caller passes
    in and which are kept without a copy. The edges are two families, each
    spread evenly in its own coordinate: m KS edges in c, from c_lo to
    c_hi, which each value comes with, and the grid in the value itself,
    from 0 to top. The bin is the number of edges below the value,
    guessed as ceil((c - c_lo) * scale) clipped to [0, m] plus
    ceil(value * grid_scale) clipped to [0, grid size], and kept only if
    the edges on either side bracket the value; c may be off by rounding,
    or be any float at all, without changing the result. Values that fail
    the check are searched for.
    """

    def __init__(self, padded: np.ndarray, m: int, c_lo: float, c_hi: float, top: float) -> None:
        self._padded = padded
        self.edges = padded[1:-1]
        self._m, self._g, self._c_lo = m, self.edges.size - m, c_lo
        with np.errstate(all="ignore"):
            self._scale = np.float64(m - 1) / (c_hi - c_lo)
            self._grid_scale = np.float64(self._g - 1) / top

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
            np.fmin(c, self._m, out=c)
            np.copyto(j, c, casting="unsafe")
            np.multiply(values, self._grid_scale, out=c)
            np.ceil(c, out=c)
            np.fmax(c, 0.0, out=c)
            np.fmin(c, self._g, out=c)
            np.add(j, c, out=j, casting="unsafe")
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
    and 1 outside the edges (terms taken alone, not copied) the bound is
    max_j max(C_j - F_{j-1}, F_j - C_{j-1}).
    """
    gap = np.divide(cum[1:], n)
    gap -= cdf[:-1]
    above = max(cum[0] / n, np.max(gap), 1.0 - cdf[-1])
    np.divide(cum[:-1], n, out=gap)
    np.subtract(cdf[1:], gap, out=gap)
    return float(max(above, cdf[0], np.max(gap), 1.0 - cum[-1] / n))


def run_scenario(
    scenario: ScenarioConfig,
    threads: int = 1,
    x_max: float | None = None,
) -> ComparisonReport:
    """Sample the scenario and compare empirical laws against the closed form.

    Args:
        scenario: Frozen serving scene.
        threads: Workers, at most one per chunk; any value yields identical
            results. The first runs on the calling thread.
        x_max: Upper grid limit in Hz; defaults to the analytic support top.

    Returns:
        ComparisonReport with per-grid CDF columns and summary statistics.
    """
    threads = _check_count("thread count", threads)
    if x_max is not None and not 0.0 <= x_max < math.inf:
        raise ValueError(f"x_max must be finite and nonnegative, got {x_max}")
    dist = scenario.law
    grid_top = doppler_support_max(dist) if x_max is None else float(x_max)
    grid = np.linspace(0.0, grid_top, scenario.grid_points)
    cdf_analytic = np.asarray(doppler_cdf(grid, dist))
    users = scenario.n_users * scenario.trials
    # The KS edges and the grid in one padded array, sorted in place; grid
    # point i lands at at[i], after the KS edges equal to it.
    padded = _ks_edges(dist, users, grid)
    m = padded.size - 2 - grid.size
    at = np.searchsorted(padded[1 : m + 1], grid, "right") + np.arange(grid.size)
    padded[1:-1].sort()
    index = _EdgeIndex(padded, m, *_distance_span(dist), grid_top)

    jobs = _chunk_jobs(scenario)
    workers = min(threads, len(jobs))
    shares = [jobs[w::workers] for w in range(workers)]
    # Every worker's batch rows and the counts, allocated here before any
    # worker starts: per batch, rows cost 5e4-1e5 page faults per 1e7
    # users, and in a started thread they came from glibc's per-thread
    # arenas, which keep their pages after the run. The row length is the
    # batch size: _BATCH, or the largest share's users when fewer. Counts
    # are int32: none exceeds MAX_USERS < 2^31.
    batch = min(_BATCH, scenario.n_users * max(sum(t for _, t in s) for s in shares))
    rows = np.empty((workers, 4, batch))
    counts = np.zeros((2, padded.size - 1), dtype=np.int32)
    lock = Lock()

    def count(w: int) -> int:
        """Add worker w's per-bin counts (rows: exact, envelope) to the
        shared counts under the lock; return its exclusions. Each batch's
        draws fill rows 2 and 3 (a share's last batch only their leading
        part). The exact row is counted first; the envelope then overwrites
        it, and row 3 holds, as intp, the bin indices. A batch with every
        user visible allocates only masks, under a row."""
        work = rows[w]
        # An int32 one keeps np.add.at on its fast loop; a Python 1 is 25x slower.
        bins, one = work[3].view(np.intp), np.int32(1)

        def add_counts(row: int, values: np.ndarray, z: np.ndarray, visible) -> None:
            # Compacted here, so that the copies go before the next batch.
            if visible is not None:
                values, z = values[visible], z[visible]
            j = index(values, z, bins)
            with lock:
                np.add.at(counts[row], j, one)

        excluded = 0
        for u_radius, u_angle in _uniform_batches(shares[w], scenario.n_users, work[2], work[3]):
            n = u_radius.size
            visible = _batch_magnitudes(scenario, u_radius, u_angle, work)
            hidden = n - int(np.count_nonzero(visible))
            excluded += hidden
            mask = visible if hidden else None
            exact, distance, own_distance = work[:3, :n]
            add_counts(0, exact, distance, mask)
            envelope = _magnitude_at_distance(own_distance, dist, out=exact, work=distance)
            add_counts(1, envelope, own_distance, mask)
        return excluded

    # Worker 0 runs on the calling thread; errors are raised after the joins.
    exclusions, errors = [0] * workers, []

    def run(w: int) -> None:
        try:
            exclusions[w] = count(w)
        except BaseException as exc:
            errors.append(exc)

    started = [Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in started:
        thread.start()
    run(0)
    for thread in started:
        thread.join()
    if errors:
        raise errors[0]
    excluded = sum(exclusions)
    # Freed before the CDF's slices, which can reuse the memory.
    del rows
    if excluded == users:
        raise ValueError("satellite below horizon for every sampled user")
    n = users - excluded
    # Samples at or below each edge: the grid columns at `at`, the KS
    # edges' counts everywhere else.
    cum = np.cumsum(counts, axis=1, dtype=np.int32, out=counts)[:, :-1]
    cum_grid = cum[:, at]
    # Each grid point then takes the edge and count of the KS edge before
    # it (0 before the first). That adds only terms C_k - F_k and F_k - C_k
    # to _ks_upper's maximum, which a KS pair's terms bound as C grows, so
    # the bounds are the KS edges' alone, bit for bit, without a copy.
    edges = padded[1:-1]
    edges[at], cum[:, at] = 0.0, 0
    np.maximum.accumulate(edges, out=edges)
    np.maximum.accumulate(cum, axis=1, out=cum)
    # The CDF overwrites the edges in slices: over all of them at once,
    # doppler_cdf's temporaries would set the peak.
    step = _BATCH // 8
    for lo in range(0, edges.size, step):
        edges[lo : lo + step] = doppler_cdf(edges[lo : lo + step], dist)
    cdf_emp_exact = cum_grid[0] / n
    gate = 3.0 * np.sqrt(cdf_analytic * (1.0 - cdf_analytic) / n)
    violations = int(np.sum(cdf_analytic > cdf_emp_exact + gate))
    return ComparisonReport(
        x_hz=grid,
        cdf_analytic=cdf_analytic,
        cdf_emp_exact=cdf_emp_exact,
        cdf_emp_bound=cum_grid[1] / n,
        ks_bound=_ks_upper(cum[1], n, edges),
        ks_exact=_ks_upper(cum[0], n, edges),
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

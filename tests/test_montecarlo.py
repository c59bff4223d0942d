"""Monte Carlo validation harness tests.

Per-sample physics first (signs, horizon, dominance), then the empirical
law against the closed form, then run/report determinism. All random
gates use frozen seeds that were checked to pass with margin.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from leodoppler import montecarlo
from leodoppler.distributions import (
    DopplerMagnitudeDistribution,
    _distance_of_magnitude,
    _distance_span,
    _magnitude_at_distance,
    doppler_cdf,
    doppler_quantile,
    doppler_support_max,
)
from leodoppler.doppler import _shift, doppler_bound
from leodoppler.geometry import (
    SatelliteConfig,
    _above_horizon,
    _slant_of_cos,
    elevation_from_central_angle,
)
from leodoppler.montecarlo import (
    MAX_GRID_POINTS,
    ComparisonReport,
    EmpiricalCdf,
    ScenarioConfig,
    ks_distance,
    run_scenario,
    write_report_csv,
    write_summary,
)

CFG600 = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3)


def _scenario(**overrides) -> ScenarioConfig:
    params = dict(
        cfg=CFG600, rho=100e3, r_hat=200e3, n_users=8, trials=1250, seed=1
    )
    params.update(overrides)
    return ScenarioConfig(**params)


# ------------------------------------------------------- single users ----

def _exact(x: float, y: float, sc: ScenarioConfig) -> tuple[float, bool]:
    """Signed exact shift and visibility of a user at planar (x, y), from
    the kernels run_scenario uses: the offset to the sub-satellite point
    over r_E is (along-track phase, cross-track angle)."""
    sx, sy = montecarlo._sub_satellite_xy(sc)
    phase, theta = (sx - x) / sc.cfg.r_e, math.cos((sy - y) / sc.cfg.r_e)
    cos_gamma = math.cos(phase) * theta
    slant = _slant_of_cos(cos_gamma, sc.cfg)
    chi = _shift(math.sin(phase), theta, slant, sc.cfg)
    return float(chi), bool(_above_horizon(cos_gamma, sc.cfg))


def _envelope(x: float, y: float, sc: ScenarioConfig) -> float:
    sx, sy = montecarlo._sub_satellite_xy(sc)
    dist = DopplerMagnitudeDistribution.for_satellite(sc.cfg, sc.rho, sc.r_hat)
    return float(_magnitude_at_distance(math.hypot(sx - x, sy - y), dist))


def test_exact_doppler_zero_under_satellite():
    sc = _scenario(r_hat=0.0)
    assert _exact(0.0, 0.0, sc) == (0.0, True)


def test_exact_doppler_sign_convention():
    # Sub-satellite point ahead of the user along track: receding, negative.
    sc = _scenario()
    behind, _ = _exact(0.0, 0.0, sc)
    ahead, _ = _exact(2.0 * sc.r_hat, 0.0, sc)
    assert behind < 0.0
    assert ahead > 0.0
    assert ahead == pytest.approx(-behind, rel=1e-12)


def test_exact_doppler_on_track_equals_envelope_at_own_elevation():
    sc = _scenario()
    for x in (0.0, 50e3, 120e3, 310e3):
        gamma = abs(sc.r_hat - x) / CFG600.r_e
        alpha = elevation_from_central_angle(gamma, CFG600)
        chi, _ = _exact(x, 0.0, sc)
        assert abs(chi) == pytest.approx(doppler_bound(alpha, CFG600), rel=1e-12)


def test_exact_doppler_raises_below_horizon():
    # The user is hidden, and run_scenario excludes it.
    sc = _scenario(r_hat=3.5e6, rho=1e3)
    assert not _exact(0.0, 0.0, sc)[1]
    visible = montecarlo._batch_magnitudes(
        sc, sc.law, np.zeros(1), np.zeros(1), np.empty((6, 1))
    )
    assert visible.tolist() == [False]


def test_bound_doppler_at_subsatellite_point_is_zero():
    sc = _scenario()
    assert _envelope(sc.r_hat, 0.0, sc) == 0.0


def test_bound_doppler_saturates_at_scale():
    sc = _scenario()
    a = DopplerMagnitudeDistribution.for_satellite(CFG600, sc.rho, sc.r_hat).a
    far = _envelope(sc.r_hat + 1e9, 0.0, sc)
    assert far < a
    assert far == pytest.approx(a, rel=1e-6)


def test_bound_dominates_exact_per_sample():
    rng = np.random.default_rng(99)
    for on_track in (True, False):
        sc = _scenario(rho=150e3, r_hat=300e3, cluster_center_on_track=on_track)
        work = np.empty((6, 2000))
        visible = montecarlo._batch_magnitudes(
            sc, sc.law, rng.random(2000), rng.random(2000), work
        )
        assert np.all(visible)
        exact, bound = work[0], work[3]
        assert np.all(exact <= bound)


# ------------------------------------------------------ empirical CDF ----

def test_empirical_cdf_evaluate():
    ecdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
    assert ecdf.evaluate(0.5) == 0.0
    assert ecdf.evaluate(1.0) == pytest.approx(1.0 / 3.0)
    assert ecdf.evaluate(2.5) == pytest.approx(2.0 / 3.0)
    assert ecdf.evaluate(9.0) == 1.0
    out = ecdf.evaluate(np.array([0.0, 1.5, 3.0]))
    assert np.allclose(out, [0.0, 1.0 / 3.0, 1.0])


def test_empirical_cdf_validation():
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([]))
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        EmpiricalCdf(np.zeros((2, 2)))


def test_ks_distance_single_sample_at_median():
    ecdf = EmpiricalCdf.from_samples([0.5])
    assert ks_distance(ecdf, lambda x: np.asarray(x)) == pytest.approx(0.5)


def test_ks_distance_of_perfect_grid_is_half_spacing():
    n = 10
    ecdf = EmpiricalCdf.from_samples((np.arange(n) + 0.5) / n)
    assert ks_distance(ecdf, lambda x: np.asarray(x)) == pytest.approx(1.0 / (2 * n))


def test_ks_distance_inverse_transform_sampling():
    dist = DopplerMagnitudeDistribution.for_satellite(CFG600, 100e3, 200e3)
    rng = np.random.default_rng(31)
    samples = doppler_quantile(rng.random(100_000), dist)
    ks = ks_distance(EmpiricalCdf.from_samples(samples), lambda x: doppler_cdf(x, dist))
    assert ks * math.sqrt(100_000) < 1.63


# ------------------------------------------------------- full scenario ----

def test_run_scenario_matches_analytic_law():
    report = run_scenario(_scenario(trials=12_500, grid_points=512))
    n = 8 * 12_500
    assert report.excluded == 0
    assert report.dominance_violations == 0
    assert report.ks_bound * math.sqrt(n) < 1.63
    # The envelope is pessimistic for off-track users, so the exact law sits
    # above the analytic one; the gap at this geometry is a few percent.
    assert report.ks_bound < report.ks_exact < 0.1


def test_run_scenario_report_shapes_and_ranges():
    report = run_scenario(_scenario(grid_points=128))
    assert isinstance(report, ComparisonReport)
    for column in (
        report.x_hz, report.cdf_analytic, report.cdf_emp_exact, report.cdf_emp_bound
    ):
        assert column.shape == (128,)
    assert report.x_hz[0] == 0.0
    dist = DopplerMagnitudeDistribution.for_satellite(CFG600, 100e3, 200e3)
    assert report.x_hz[-1] == pytest.approx(doppler_support_max(dist), rel=1e-12)
    assert report.cdf_analytic[0] == 0.0
    assert report.cdf_analytic[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all((report.cdf_emp_exact >= 0.0) & (report.cdf_emp_exact <= 1.0))


def test_run_scenario_grid_top_override():
    report = run_scenario(_scenario(grid_points=64), x_max=30e3)
    assert report.x_hz[-1] == 30e3


def test_run_scenario_cross_track_scene():
    # Abeam the cluster the along-track phase is near zero for every user,
    # so exact shifts collapse while the envelope law, which depends only
    # on planar distance, is unchanged.
    report = run_scenario(
        _scenario(trials=12_500, cluster_center_on_track=False, grid_points=256)
    )
    assert report.excluded == 0
    assert report.dominance_violations == 0
    assert report.ks_bound * math.sqrt(8 * 12_500) < 1.63
    assert report.ks_exact > 0.5


def test_run_scenario_counts_horizon_exclusions():
    report = run_scenario(_scenario(r_hat=2.65e6, trials=500, seed=3, grid_points=64))
    assert 0 < report.excluded < 8 * 500


def test_run_scenario_raises_when_nothing_visible():
    with pytest.raises(ValueError):
        run_scenario(_scenario(r_hat=3.5e6, rho=1e3, trials=10))


def test_run_scenario_deterministic_across_runs_and_threads():
    reports = [
        run_scenario(_scenario(grid_points=128), threads=t) for t in (1, 1, 4)
    ]
    base = reports[0]
    for other in reports[1:]:
        assert np.array_equal(base.x_hz, other.x_hz)
        assert np.array_equal(base.cdf_emp_exact, other.cdf_emp_exact)
        assert np.array_equal(base.cdf_emp_bound, other.cdf_emp_bound)
        assert base.ks_bound == other.ks_bound
        assert base.ks_exact == other.ks_exact
        assert base.excluded == other.excluded


def test_run_scenario_seed_changes_samples():
    r1 = run_scenario(_scenario(seed=1, grid_points=64))
    r2 = run_scenario(_scenario(seed=2, grid_points=64))
    assert not np.array_equal(r1.cdf_emp_exact, r2.cdf_emp_exact)


def test_run_scenario_validation(no_sampling):
    with pytest.raises(ValueError):
        run_scenario(_scenario(), threads=0)
    # Both arguments are checked by name before any table is built.
    for threads in (math.nan, math.inf, 1.5):
        with pytest.raises(ValueError, match="thread count"):
            run_scenario(_scenario(), threads=threads)
    for x_max in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="x_max must be finite"):
            run_scenario(_scenario(), x_max=x_max)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        _scenario(rho=0.0)
    with pytest.raises(ValueError):
        _scenario(r_hat=-1.0)
    with pytest.raises(ValueError):
        _scenario(n_users=0)
    with pytest.raises(ValueError):
        _scenario(trials=0)
    with pytest.raises(ValueError):
        _scenario(seed=-1)
    with pytest.raises(ValueError):
        _scenario(seed=2**64)
    with pytest.raises(ValueError):
        _scenario(grid_points=1)


def test_scenario_config_rejects_non_finite_and_oversized_counts():
    for key in ("n_users", "trials", "seed", "grid_points"):
        for bad in (math.inf, -math.inf, math.nan, 2.5):
            with pytest.raises(ValueError, match=key):
                _scenario(**{key: bad})
    with pytest.raises(ValueError, match="at most"):
        _scenario(n_users=10**5, trials=10**5)
    _scenario(n_users=10**3, trials=10**6)
    # Whole floats are accepted and stored as ints, which the sampler needs.
    whole = _scenario(n_users=8.0, trials=10.0, seed=1.0, grid_points=64.0)
    assert whole == _scenario(n_users=8, trials=10, seed=1, grid_points=64)
    assert all(type(getattr(whole, key)) is int for key in ("n_users", "trials", "seed"))
    a, b = run_scenario(whole), run_scenario(_scenario(trials=10, grid_points=64))
    assert np.array_equal(a.cdf_emp_exact, b.cdf_emp_exact) and a.ks_exact == b.ks_exact


def test_scenario_config_enforces_tangent_plane_radius():
    # pi * r_E / 4 is 5.004e6 m for the standard Earth.
    _scenario(rho=100e3, r_hat=4.8e6)
    with pytest.raises(ValueError, match="validity radius"):
        _scenario(rho=100e3, r_hat=4.95e6)


def test_run_scenario_caps_grid_before_sampling(no_sampling):
    # The cap is a ScenarioConfig check, so no run starts with too large a grid.
    _scenario(grid_points=MAX_GRID_POINTS)
    with pytest.raises(ValueError, match="grid_points must be 2 to 1000000"):
        run_scenario(_scenario(grid_points=MAX_GRID_POINTS + 1))


def test_run_scenario_caps_threads_at_chunk_count(pool_sizes):
    sc = _scenario(trials=10, grid_points=64)
    report = run_scenario(sc, threads=10**6)
    assert pool_sizes == [10]
    single = run_scenario(sc, threads=1)
    assert pool_sizes == [10]
    assert np.array_equal(report.cdf_emp_exact, single.cdf_emp_exact)
    assert report.ks_exact == single.ks_exact


# --------------------------------------------------- binned reduction ----

def _reference_samples(sc: ScenarioConfig):
    """Every chunk drawn whole from one generator, as rng.random(count)
    twice, then transformed; returns (exact, envelope, excluded)."""
    rows, excluded = ([], []), 0
    for child_seed, trials in montecarlo._chunk_jobs(sc):
        rng = np.random.default_rng(child_seed)
        count = trials * sc.n_users
        u_radius = rng.random(count)
        u_angle = rng.random(count)
        work = np.empty((6, count))
        visible = montecarlo._batch_magnitudes(sc, sc.law, u_radius, u_angle, work)
        excluded += count - int(np.count_nonzero(visible))
        rows[0].append(work[0][visible])
        rows[1].append(work[3][visible])
    return np.concatenate(rows[0]), np.concatenate(rows[1]), excluded


def test_batches_reproduce_one_generator_per_chunk():
    batch = montecarlo._BATCH
    seeds = np.random.SeedSequence(5).spawn(3)
    n_users = 2
    # The middle chunk spans three batches and shares two with its neighbours.
    jobs = [(seeds[0], 3), (seeds[1], batch + 5), (seeds[2], 7)]
    # Rows longer than the batch: the batch size follows from the jobs, and
    # the draws go to the rows' leading entries only.
    rows = np.full((2, batch + 3), -1.0)
    batches = []
    for r, a in montecarlo._uniform_batches(jobs, n_users, rows[0], rows[1]):
        assert np.shares_memory(r, rows[0]) and np.shares_memory(a, rows[1])
        batches.append((r.copy(), a.copy()))
    assert [r.size for r, _ in batches] == [batch, batch, 2 * (3 + 5 + 7)]
    assert np.all(rows[:, batch:] == -1.0)
    radius, angle = [], []
    for child_seed, trials in jobs:
        rng = np.random.default_rng(child_seed)
        radius.append(rng.random(trials * n_users))
        angle.append(rng.random(trials * n_users))
    assert np.array_equal(np.concatenate([r for r, _ in batches]), np.concatenate(radius))
    assert np.array_equal(np.concatenate([a for _, a in batches]), np.concatenate(angle))


def _probes(edges: np.ndarray, a: float) -> np.ndarray:
    """Every edge, its float neighbours, and the awkward floats."""
    return np.concatenate((
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [0.0, -0.0, a, np.nextafter(a, 0.0), 2.0 * a, 5e-324, np.inf, -np.inf, np.nan],
    ))


@pytest.mark.parametrize("r_hat", [200e3, 0.0, 2.65e6])
@pytest.mark.parametrize("grid_top", [None, 30e3, 1e3])
def test_edge_index_equals_searchsorted(r_hat, grid_top):
    dist = DopplerMagnitudeDistribution.for_satellite(CFG600, 100e3, r_hat)
    top = doppler_support_max(dist) if grid_top is None else grid_top
    grid = np.linspace(0.0, top, 512)
    ks = montecarlo._ks_edges(dist, 10**7)
    z_lo, z_hi = _distance_span(dist)
    ks_index = montecarlo._EdgeIndex(ks, z_lo, z_hi)
    grid_index = montecarlo._EdgeIndex(grid, 0.0, top)
    a = dist.a
    rng = np.random.default_rng(0)

    def lookup(index, v, c):
        return index(v, c, np.empty(v.size, dtype=np.intp))

    for index, edges in ((ks_index, ks), (grid_index, grid)):
        values = _probes(edges, a)
        expected = np.searchsorted(edges, values, side="left")
        # The exact row guesses its KS bin from the distance at which the
        # envelope takes each value; the grid guesses from the value itself.
        if index is ks_index:
            with np.errstate(invalid="ignore", divide="ignore"):
                c = _distance_of_magnitude(values, dist)
        else:
            c = values.copy()
        assert np.array_equal(lookup(index, values, c), expected)
        # Any coordinate at all, however wrong, leaves the result unchanged.
        junk = np.concatenate((
            rng.uniform(-2.0 * z_hi, 3.0 * z_hi, values.size - 4),
            [np.nan, np.inf, -np.inf, -0.0],
        ))
        assert np.array_equal(lookup(index, values, junk), expected)
    # The envelope row guesses from each user's own distance: here the KS
    # distances, their float neighbours, and distances past both ends.
    z_ks = np.linspace(z_lo, z_hi, ks.size)
    z = np.concatenate((
        z_ks, np.nextafter(z_ks, -np.inf), np.nextafter(z_ks, np.inf),
        np.linspace(0.0, 2.0 * z_hi, 10_001),
    ))
    z = z[z >= 0.0]
    envelope = _magnitude_at_distance(z, dist)
    got = lookup(ks_index, envelope, z.copy())
    assert np.array_equal(got, np.searchsorted(ks, envelope, side="left"))


@pytest.mark.parametrize("on_track", [True, False])
def test_grid_top_on_a_ks_edge_matches_reference(on_track):
    # The grid's top is the upper edge of a KS bin that holds a sample, so
    # a grid point ties with a KS edge and the bin below it counts in full.
    sc = _scenario(grid_points=97, cluster_center_on_track=on_track)
    dist = DopplerMagnitudeDistribution.for_satellite(sc.cfg, sc.rho, sc.r_hat)
    ks = montecarlo._ks_edges(dist, sc.n_users * sc.trials)
    exact, bound, _ = _reference_samples(sc)
    for samples in (exact, bound):
        top = float(ks[np.searchsorted(ks, np.median(samples))])
        report = run_scenario(sc, x_max=top)
        assert report.x_hz[-1] == top
        for column, row in ((report.cdf_emp_exact, exact), (report.cdf_emp_bound, bound)):
            assert np.array_equal(column, EmpiricalCdf.from_samples(row).evaluate(report.x_hz))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"trials": 20_000},  # chunks of 2 500 users split across batches
        {"r_hat": 2.65e6, "trials": 500, "seed": 3},
        {"n_users": 3, "trials": 7, "cluster_center_on_track": False},
    ],
)
def test_grid_columns_equal_exact_empirical_cdf(overrides):
    sc = _scenario(**overrides, grid_points=256)
    report = run_scenario(sc, threads=2)
    exact, bound, excluded = _reference_samples(sc)
    assert report.excluded == excluded
    grid = report.x_hz
    assert np.array_equal(report.cdf_emp_exact, EmpiricalCdf.from_samples(exact).evaluate(grid))
    assert np.array_equal(report.cdf_emp_bound, EmpiricalCdf.from_samples(bound).evaluate(grid))


@pytest.mark.parametrize(
    "overrides, x_max",
    [
        ({}, None),
        ({"cluster_center_on_track": False}, None),
        ({"r_hat": 2.65e6, "trials": 500, "seed": 3}, None),
        ({}, 30e3),
    ],
)
def test_reported_ks_brackets_exact_statistic(overrides, x_max):
    sc = _scenario(**overrides, grid_points=128)
    report = run_scenario(sc, x_max=x_max)
    dist = DopplerMagnitudeDistribution.for_satellite(sc.cfg, sc.rho, sc.r_hat)
    edges = montecarlo._ks_edges(dist, sc.n_users * sc.trials)
    law_at_edges = doppler_cdf(edges, dist)
    bin_mass = np.max(np.diff(np.concatenate(([0.0], law_at_edges, [1.0]))))
    exact, bound, _ = _reference_samples(sc)
    # The bracket's slack sits far inside the sampling error 1/sqrt(n).
    assert bin_mass < 0.1 / math.sqrt(exact.size)
    for reported, samples in ((report.ks_exact, exact), (report.ks_bound, bound)):
        exact_ks = ks_distance(EmpiricalCdf.from_samples(samples), lambda x: doppler_cdf(x, dist))
        assert exact_ks <= reported <= exact_ks + bin_mass


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rho=st.floats(1e3, 3e5),
    r_hat=st.sampled_from([0.0, 1e3, 5e4, 2e5, 6e5, 2.6e6]) | st.floats(0.0, 2.7e6),
    x_max=st.none() | st.sampled_from([0.0, 5e-324, 1e3, 3e4]) | st.floats(0.0, 1.2e5),
    grid_points=st.integers(2, 700),
    n_users=st.integers(1, 9),
    trials=st.integers(1, 150),
    on_track=st.booleans(),
    threads=st.integers(1, 2),
)
# Some users below the horizon, so that the worker compacts both rows.
@example(
    rho=1e5, r_hat=2.6e6, x_max=1.2e5, grid_points=64, n_users=8, trials=150,
    on_track=True, threads=2,
)
@example(
    rho=1e5, r_hat=2.6e6, x_max=None, grid_points=64, n_users=8, trials=150,
    on_track=False, threads=1,
)
def test_report_equals_reference_built_from_samples(
    rho, r_hat, x_max, grid_points, n_users, trials, on_track, threads
):
    sc = _scenario(
        rho=rho, r_hat=r_hat, n_users=n_users, trials=trials, seed=11,
        cluster_center_on_track=on_track, grid_points=grid_points,
    )
    exact, bound, excluded = _reference_samples(sc)
    if exact.size == 0:
        with pytest.raises(ValueError, match="below horizon"):
            run_scenario(sc, threads=threads, x_max=x_max)
        return
    report = run_scenario(sc, threads=threads, x_max=x_max)
    assert report.excluded == excluded
    dist = DopplerMagnitudeDistribution.for_satellite(sc.cfg, sc.rho, sc.r_hat)
    ks_edges = montecarlo._ks_edges(dist, n_users * trials)
    ks_law = doppler_cdf(ks_edges, dist)
    for column, ks, samples in (
        (report.cdf_emp_exact, report.ks_exact, exact),
        (report.cdf_emp_bound, report.ks_bound, bound),
    ):
        ecdf = EmpiricalCdf.from_samples(samples)
        assert np.array_equal(column, ecdf.evaluate(report.x_hz))
        at_or_below = np.searchsorted(ecdf.samples, ks_edges, side="right")
        assert ks == montecarlo._ks_upper(at_or_below, samples.size, ks_law)


def test_peak_memory_flat_in_trial_count():
    def peak_bytes(trials: int) -> int:
        tracemalloc.start()
        try:
            run_scenario(_scenario(trials=trials))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(1250)  # one-time allocations
    small, large = peak_bytes(12_500), peak_bytes(125_000)
    # Holding the 1e6 samples would take 16 MB for the two magnitudes alone.
    assert large <= 1.5 * small


@pytest.mark.parametrize("on_track", [True, False], ids=["on_track", "cross_track"])
def test_counting_a_batch_allocates_less_than_one_row(monkeypatch, on_track):
    # 2^20 users fill 16 batches and reach the 2^16 KS edges. Every user
    # sees the satellite, so the worker indexes into and compacts onto the
    # run's own rows and adds to its counts in place; a bin count per batch
    # alone would take 8 (2^16 + 1) bytes, more than a row. Cross-track,
    # every exact value lies in a mixed KS bin, so none is compacted. Each
    # batch is measured from its draw to the next, over the transform and
    # the counting.
    calls = []
    inner = montecarlo._uniform_batches

    def traced(jobs, n_users, radius, angle):
        for batch in inner(jobs, n_users, radius, angle):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield batch
            calls.append((tracemalloc.get_traced_memory()[1] - before, radius.nbytes))

    monkeypatch.setattr(montecarlo, "_uniform_batches", traced)
    sc = _scenario(trials=(1 << 20) // 8, grid_points=128, cluster_center_on_track=on_track)
    tracemalloc.start()
    try:
        report = run_scenario(sc)
    finally:
        tracemalloc.stop()
    assert report.excluded == 0
    assert len(calls) == 16
    for allocated, row_bytes in calls:
        assert row_bytes == 8 * montecarlo._BATCH
        assert allocated < row_bytes, calls


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"),
    reason="measures glibc's per-thread arenas through Linux's VmHWM",
)
def test_repeated_threaded_runs_keep_peak_rss():
    # Batch arrays allocated inside worker threads land in glibc's
    # per-thread arenas, which keep their pages after the run; peak RSS then
    # grew by 4.5-4.9 MiB from the first 1e6-user run below to the fourth,
    # against 0.1-1.3 MiB with the rows allocated by run_scenario. A
    # 1e4-user run first takes the one-time costs (imports, code pages),
    # which are 1-2 MiB and vary. The child reads its peak as VmHWM: its
    # ru_maxrss would also count this test process's RSS, which exec
    # carries over to the child and which may be larger.
    script = textwrap.dedent("""
        from leodoppler.geometry import SatelliteConfig
        from leodoppler.montecarlo import ScenarioConfig, run_scenario

        cfg = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3)
        run_scenario(ScenarioConfig(cfg, 100e3, 200e3, 8, 1250, seed=1), threads=2)
        sc = ScenarioConfig(cfg, 100e3, 200e3, n_users=8, trials=125_000, seed=1)
        for _ in range(4):
            run_scenario(sc, threads=2)
            with open("/proc/self/status") as fh:
                print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    kib = [int(line) for line in result.stdout.split()]
    assert len(kib) == 4
    assert kib[-1] - kib[0] <= 2 * 1024, kib


# ------------------------------------------------------------- output ----

def test_report_csv_and_summary_files(tmp_path):
    report = run_scenario(_scenario(grid_points=64))
    csv_path = tmp_path / "report.csv"
    txt_path = tmp_path / "summary.txt"
    write_report_csv(report, csv_path)
    write_summary(report, txt_path)

    lines = csv_path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "x_hz,cdf_analytic,cdf_emp_exact,cdf_emp_bound"
    assert len(lines) == 65
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    summary = dict(
        line.split("=", 1) for line in txt_path.read_text(encoding="ascii").splitlines()
    )
    assert set(summary) == {"ks_bound", "ks_exact", "violations", "excluded"}
    assert int(summary["violations"]) == report.dominance_violations
    assert float(summary["ks_bound"]) == pytest.approx(report.ks_bound, rel=1e-8)


def test_report_files_are_byte_stable(tmp_path):
    paths = []
    for tag, threads in (("a", 1), ("b", 4)):
        report = run_scenario(_scenario(grid_points=64), threads=threads)
        p = tmp_path / f"{tag}.csv"
        write_report_csv(report, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# First 16 hex digits of the SHA-256 of the report CSV followed by the
# summary, per (on track, r_hat km, trials, grid points), on the CLI default
# scene (600 km, rho = 100 km, 8 users, seed 1). Captured before the config
# and law API was trimmed; one and two threads write the same bytes.
_SWEEP_DIGESTS = {
    (True,     0,     1,   2): "e593987ca2a6436d",
    (True,     0,     1,  64): "e433990ca452f939",
    (True,     0,     1, 512): "66c6ea3e64e4d4dd",
    (True,     0,     3,   2): "f6c65709adbb961f",
    (True,     0,     3,  64): "8c800d05240a6539",
    (True,     0,     3, 512): "514f449dff991766",
    (True,     0,  1250,   2): "d587ab9aa7fa13dd",
    (True,     0,  1250,  64): "6e59d1a40b138cc5",
    (True,     0,  1250, 512): "81dd2a064569f69a",
    (True,     0, 12500,   2): "d8f272e54c4184ef",
    (True,     0, 12500,  64): "8b32f1474be1accb",
    (True,     0, 12500, 512): "c64e822712fd7d08",
    (True,    50,     1,   2): "b537fcb38fc958cc",
    (True,    50,     1,  64): "b0321b326d2386cc",
    (True,    50,     1, 512): "9f52da72ac56246f",
    (True,    50,     3,   2): "1eee0832bb8d36c2",
    (True,    50,     3,  64): "6b71f3921afdf475",
    (True,    50,     3, 512): "9c2bbe5e62fab54f",
    (True,    50,  1250,   2): "ab212f1696b09e61",
    (True,    50,  1250,  64): "d355a8bb6b1487ed",
    (True,    50,  1250, 512): "e87cd21c5a0e05f4",
    (True,    50, 12500,   2): "89896ea687115fa5",
    (True,    50, 12500,  64): "b7b9ba1f19da365d",
    (True,    50, 12500, 512): "4610e8ea50251225",
    (True,   200,     1,   2): "9a5aa5104ea33840",
    (True,   200,     1,  64): "fab4a390f5101a11",
    (True,   200,     1, 512): "5158465fe506e161",
    (True,   200,     3,   2): "0b59685323d6ceb1",
    (True,   200,     3,  64): "6d5d903c06786401",
    (True,   200,     3, 512): "ab23f71e3bda0aef",
    (True,   200,  1250,   2): "d81916e87d3e3e3f",
    (True,   200,  1250,  64): "ca49718a0a04043f",
    (True,   200,  1250, 512): "00ff3ce00d7131db",
    (True,   200, 12500,   2): "fef59a026701313d",
    (True,   200, 12500,  64): "03dee9132075d276",
    (True,   200, 12500, 512): "24f026edc92598d9",
    (True,  2650,     1,   2): "6328b8c07ad7fb17",
    (True,  2650,     1,  64): "6f846d2e7fae485f",
    (True,  2650,     1, 512): "7d909401ca203db4",
    (True,  2650,     3,   2): "f33aafff30237abc",
    (True,  2650,     3,  64): "bdf5ae13152c95ee",
    (True,  2650,     3, 512): "bcab007060298a84",
    (True,  2650,  1250,   2): "0e8ace8b6131cb6f",
    (True,  2650,  1250,  64): "b9a49753cd15a61f",
    (True,  2650,  1250, 512): "6a2342ea1d3ecb86",
    (True,  2650, 12500,   2): "80b793e92e7d0b47",
    (True,  2650, 12500,  64): "d4f9da0acf5bce71",
    (True,  2650, 12500, 512): "333f83c14e115360",
    (False,    0,     1,   2): "e593987ca2a6436d",
    (False,    0,     1,  64): "e433990ca452f939",
    (False,    0,     1, 512): "66c6ea3e64e4d4dd",
    (False,    0,     3,   2): "f6c65709adbb961f",
    (False,    0,     3,  64): "8c800d05240a6539",
    (False,    0,     3, 512): "514f449dff991766",
    (False,    0,  1250,   2): "d587ab9aa7fa13dd",
    (False,    0,  1250,  64): "6e59d1a40b138cc5",
    (False,    0,  1250, 512): "81dd2a064569f69a",
    (False,    0, 12500,   2): "d8f272e54c4184ef",
    (False,    0, 12500,  64): "8b32f1474be1accb",
    (False,    0, 12500, 512): "c64e822712fd7d08",
    (False,   50,     1,   2): "9dc3b223f02df382",
    (False,   50,     1,  64): "b581349ff9a2d5c0",
    (False,   50,     1, 512): "4d7afbc25873ed1c",
    (False,   50,     3,   2): "b2ab6d80a488848e",
    (False,   50,     3,  64): "65410bbfd048cb55",
    (False,   50,     3, 512): "5504cc71f057b144",
    (False,   50,  1250,   2): "3413aeebdc2e704f",
    (False,   50,  1250,  64): "e60f67c08bea07ce",
    (False,   50,  1250, 512): "1da5e75fb26b9794",
    (False,   50, 12500,   2): "720e8eb454f3a75f",
    (False,   50, 12500,  64): "88a45e2c05929f56",
    (False,   50, 12500, 512): "eb3c781e41fecbf4",
    (False,  200,     1,   2): "222f3cd266a166d0",
    (False,  200,     1,  64): "973e853ad8bc3756",
    (False,  200,     1, 512): "d412ce668411eb71",
    (False,  200,     3,   2): "eaa3f3dcd443a211",
    (False,  200,     3,  64): "e85657aaee9f8ab5",
    (False,  200,     3, 512): "9717d5d315ae65b4",
    (False,  200,  1250,   2): "9ac747ccab27e832",
    (False,  200,  1250,  64): "962f4d63f0045ad7",
    (False,  200,  1250, 512): "4663b377d6a685e0",
    (False,  200, 12500,   2): "16efc22c64aac786",
    (False,  200, 12500,  64): "9015fe614c4f5a11",
    (False,  200, 12500, 512): "bc479c9d3f7f785c",
    (False, 2650,     1,   2): "f4acfb96b0af9203",
    (False, 2650,     1,  64): "3190f35426af8bcf",
    (False, 2650,     1, 512): "067fb7e2ef9e5384",
    (False, 2650,     3,   2): "2c8ef77f0bfea179",
    (False, 2650,     3,  64): "7b77faa5e3cc6782",
    (False, 2650,     3, 512): "5a873144ab664648",
    (False, 2650,  1250,   2): "0e1f757bf67b46bd",
    (False, 2650,  1250,  64): "051dce06251cf2de",
    (False, 2650,  1250, 512): "93add989095e2322",
    (False, 2650, 12500,   2): "778c9b85dc285328",
    (False, 2650, 12500,  64): "2f4288305e16520c",
    (False, 2650, 12500, 512): "828c4ba3ea6628a2",
}


def test_report_files_match_sweep_digests(tmp_path):
    """Output-identity sweep over scene, size, grid and thread count.

    The written text is hashed, not the float bits: a change below the 9th
    significant digit that leaves every file the same passes. Checked on
    copies of the code: dropping the disk map's quadrant swap changed all
    192 runs, scaling the exact shift or the disk map's angle by 1 + 1e-6
    changed 44 and 24. Faults of 1e-9 relative, a non-strict bound in
    _EdgeIndex's check or a disabled search fallback change no written
    file; test_edge_index_equals_searchsorted and the kernel tests guard
    those.
    """
    csv_path, txt_path = tmp_path / "report.csv", tmp_path / "summary.txt"
    changed = []
    for on_track, r_hat_km, trials, grid in itertools.product(
        (True, False), (0, 50, 200, 2650), (1, 3, 1250, 12_500), (2, 64, 512)
    ):
        key = (on_track, r_hat_km, trials, grid)
        sc = _scenario(
            r_hat=r_hat_km * 1e3,
            trials=trials,
            grid_points=grid,
            cluster_center_on_track=on_track,
        )
        for threads in (1, 2):
            report = run_scenario(sc, threads=threads)
            write_report_csv(report, csv_path)
            write_summary(report, txt_path)
            digest = hashlib.sha256(csv_path.read_bytes() + txt_path.read_bytes())
            if digest.hexdigest()[:16] != _SWEEP_DIGESTS[key]:
                changed.append((*key, threads))
    assert not changed, f"(on_track, r_hat_km, trials, grid, threads) changed: {changed}"

"""Sampling checks for the planar cluster process.

Statistical gates use fixed seeds, so they are deterministic reruns of a
draw that was verified to sit well inside the stated tolerance.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from leodoppler.geometry import PlanarPoint
from leodoppler.pointprocess import (
    CellModel,
    ClusterSample,
    _disk_offsets,
    _disk_points,
    distances_to_point,
    dump_clusters_csv,
    sample_cell,
    sample_uniform_disk,
)

ORIGIN = PlanarPoint(0.0, 0.0)


def _one_big_cluster(rho: float, n: int, seed: int) -> ClusterSample:
    return sample_uniform_disk(ORIGIN, rho, n, np.random.default_rng(seed))


# ------------------------------------------------------------ disk law ----

def test_disk_mean_distance_two_thirds_radius():
    rho = 1e5
    sample = _one_big_cluster(rho, 1_000_000, seed=5)
    d = distances_to_point(sample, ORIGIN)
    # E[d] = 2 rho / 3, sd[d] = rho / sqrt(18); 3 standard errors at 1e6.
    three_se = 3.0 * rho / math.sqrt(18.0) / 1000.0
    assert abs(float(d.mean()) - 2.0 * rho / 3.0) < three_se


def test_disk_samples_stay_inside_radius():
    rho = 5e4
    centre = PlanarPoint(1e5, -3e4)
    sample = sample_uniform_disk(centre, rho, 200_000, np.random.default_rng(6))
    d = distances_to_point(sample, centre)
    assert float(d.max()) <= rho * (1.0 + 1e-12)


def test_disk_radial_pit_is_uniform():
    # (d / rho)^2 is Uniform(0, 1) under the area law.
    rho = 1e5
    sample = _one_big_cluster(rho, 1_000_000, seed=7)
    u = np.sort((distances_to_point(sample, ORIGIN) / rho) ** 2)
    n = u.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    ks = max(float(np.max(grid_hi - u)), float(np.max(u - grid_lo)))
    assert ks < 0.002


def test_disk_angles_are_uniform():
    sample = _one_big_cluster(1e5, 1_000_000, seed=9)
    angles = np.arctan2(sample.users[:, 1], sample.users[:, 0])
    counts, _ = np.histogram(angles, bins=32, range=(-math.pi, math.pi))
    result = chisquare(counts)
    assert result.pvalue > 0.001


def test_disk_sampling_is_deterministic():
    a = sample_uniform_disk(ORIGIN, 1e5, 1000, np.random.default_rng(42))
    b = sample_uniform_disk(ORIGIN, 1e5, 1000, np.random.default_rng(42))
    assert np.array_equal(a.users, b.users)


def test_disk_sequential_draws_differ():
    rng = np.random.default_rng(42)
    a = sample_uniform_disk(ORIGIN, 1e5, 1000, rng)
    b = sample_uniform_disk(ORIGIN, 1e5, 1000, rng)
    assert not np.array_equal(a.users, b.users)


def test_disk_sampling_validation():
    rng = np.random.default_rng(0)
    for bad in (0.0, -1.0, 1e-300, 1e200, math.inf, math.nan):
        with pytest.raises(ValueError, match="disk radius"):
            sample_uniform_disk(ORIGIN, bad, 10, rng)
    with pytest.raises(ValueError):
        sample_uniform_disk(ORIGIN, 1e5, 0, rng)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="user count n"):
            sample_uniform_disk(ORIGIN, 1e5, bad, rng)


def _disk_map(u_radius, u_angle, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """_disk_points on copies of the draws, with a work array of its own."""
    u_radius = np.array(u_radius, dtype=float)
    x, y = np.empty(u_radius.size), np.empty(u_radius.size)
    _disk_points(u_radius, np.array(u_angle, dtype=float), rho, x, y, np.empty(u_radius.size))
    return x, y


def test_disk_map_puts_axis_points_on_the_axes():
    rho = 1e5
    u_radius = np.array([0.0, 0.25, 0.3, 0.5, 1.0 - 2.0**-53])
    r = rho * np.sqrt(u_radius)
    for u, (cx, cy) in ((0.0, (1, 0)), (0.25, (0, 1)), (0.5, (-1, 0)), (0.75, (0, -1))):
        x, y = _disk_map(u_radius, np.full(u_radius.size, u), rho)
        assert np.array_equal(x, cx * r)
        assert np.array_equal(y, cy * r)


def test_disk_map_matches_cos_sin_of_the_full_angle():
    rng = np.random.default_rng(12)
    eighths = np.arange(9) / 8.0
    u_angle = np.concatenate((
        rng.random(1_000_000),
        eighths[:8],
        np.nextafter(eighths[:8], np.inf),
        np.nextafter(eighths[1:], -np.inf),  # ends with the largest float below 1
    ))
    u_radius = rng.random(u_angle.size)
    rho = 1e5
    x, y = _disk_map(u_radius, u_angle, rho)
    r = rho * np.sqrt(u_radius)
    theta = 2.0 * math.pi * u_angle
    assert np.all(np.abs(x - r * np.cos(theta)) <= 1e-15 * r)
    assert np.all(np.abs(y - r * np.sin(theta)) <= 1e-15 * r)
    # The quadrant turn itself is exact: each coordinate is +-r cos d or
    # +-r sin d of the reduced angle d, with cos d = sqrt(1 - sin^2 d).
    q = np.rint(4.0 * u_angle)
    d = (4.0 * u_angle - q) * (0.5 * math.pi)
    sin_d = np.sin(d)
    c, s = r * np.sqrt(1.0 - sin_d * sin_d), r * sin_d
    quadrant = q.astype(int)
    assert np.array_equal(x, np.choose(quadrant, [c, -s, -c, s, c]))
    assert np.array_equal(y, np.choose(quadrant, [s, c, -s, -c, s]))


def test_disk_offsets_may_reuse_the_radius_draws_as_work():
    # _disk_offsets hands the radius draws to _disk_points as its work array.
    offsets = _disk_offsets(1e5, 10_000, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    u_radius = rng.random(10_000)
    x, y = _disk_map(u_radius, rng.random(10_000), 1e5)
    assert np.array_equal(offsets[:, 0], x)
    assert np.array_equal(offsets[:, 1], y)


def test_cluster_sample_shape_validation():
    with pytest.raises(ValueError):
        ClusterSample(ORIGIN, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ClusterSample(ORIGIN, np.zeros((3, 3)))


# ------------------------------------------------------------ cell level ----

def test_cell_parent_count_is_poisson_mean():
    # lambda_c pi r_cell^2 = 5 exactly.
    r_cell = 1e4
    model = CellModel(r_cell=r_cell, lambda_c=5.0 / (math.pi * r_cell**2), rho=1e3, n=1)
    rng = np.random.default_rng(11)
    draws = 100_000
    counts = np.array([len(sample_cell(model, rng)) for _ in range(draws)])
    three_se = 3.0 * math.sqrt(5.0 / draws)
    assert abs(float(counts.mean()) - 5.0) < three_se
    # Variance equals the mean for a Poisson count.
    assert abs(float(counts.var()) - 5.0) < 0.1


def test_cell_clusters_have_fixed_user_count():
    model = CellModel(r_cell=1e4, lambda_c=1e-7, rho=1e3, n=7)
    clusters = sample_cell(model, np.random.default_rng(13))
    assert len(clusters) > 0
    for cluster in clusters:
        assert cluster.users.shape == (7, 2)
        d = distances_to_point(cluster, cluster.center)
        assert float(d.max()) <= model.rho * (1.0 + 1e-12)


def test_cell_parents_inside_cell_daughters_may_leave():
    # rho = r_cell makes edge parents throw daughters past the boundary.
    model = CellModel(r_cell=1e4, lambda_c=3e-7, rho=1e4, n=50)
    rng = np.random.default_rng(17)
    escaped = 0
    for _ in range(200):
        for cluster in sample_cell(model, rng):
            assert math.hypot(cluster.center.x, cluster.center.y) <= model.r_cell
            radii = np.hypot(cluster.users[:, 0], cluster.users[:, 1])
            escaped += int(np.count_nonzero(radii > model.r_cell))
    assert escaped > 0


def test_cell_draws_all_daughters_at_once_after_the_parents():
    # One uniform-disk draw covers the parents, one more every daughter,
    # each with its radii before its angles.
    model = CellModel(r_cell=1e4, lambda_c=1e-7, rho=1e3, n=3)
    clusters = sample_cell(model, np.random.default_rng(19))
    rng = np.random.default_rng(19)
    parents = int(rng.poisson(model.lambda_c * math.pi * model.r_cell**2))
    centres = sample_uniform_disk(ORIGIN, model.r_cell, parents, rng).users
    users = sample_uniform_disk(ORIGIN, model.rho, parents * 3, rng).users
    assert len(clusters) == parents > 1
    for k, cluster in enumerate(clusters):
        assert (cluster.center.x, cluster.center.y) == tuple(centres[k])
        assert np.array_equal(cluster.users, users[3 * k : 3 * k + 3] + centres[k])


def test_cell_can_be_empty():
    model = CellModel(r_cell=1e4, lambda_c=1e-12, rho=1e3, n=4)
    assert sample_cell(model, np.random.default_rng(1)) == []


def test_cell_model_validation():
    with pytest.raises(ValueError):
        CellModel(r_cell=0.0, lambda_c=1e-7, rho=1e3, n=4)
    with pytest.raises(ValueError):
        CellModel(r_cell=1e4, lambda_c=0.0, rho=1e3, n=4)
    with pytest.raises(ValueError):
        CellModel(r_cell=1e4, lambda_c=1e-7, rho=2e4, n=4)
    with pytest.raises(ValueError):
        CellModel(r_cell=1e4, lambda_c=1e-7, rho=1e3, n=0)
    # r_cell**2 would overflow in sample_cell.
    with pytest.raises(ValueError, match="cell radius"):
        CellModel(r_cell=1e200, lambda_c=1e-300, rho=1.0, n=1)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="users per cluster n"):
            CellModel(r_cell=1e4, lambda_c=1e-7, rho=1e3, n=bad)


# ------------------------------------------------------------- helpers ----

def test_distances_to_point_known_values():
    users = np.array([[3.0, 4.0], [0.0, 0.0], [-6.0, 8.0]])
    sample = ClusterSample(ORIGIN, users)
    assert np.allclose(distances_to_point(sample, ORIGIN), [5.0, 0.0, 10.0], atol=0)


def test_distances_to_point_translation_invariant():
    rng = np.random.default_rng(21)
    users = rng.normal(size=(100, 2)) * 1e4
    shift = np.array([7.5e4, -2.5e4])
    base = ClusterSample(ORIGIN, users)
    moved = ClusterSample(PlanarPoint(*shift), users + shift)
    q = PlanarPoint(1e4, 2e4)
    q_moved = PlanarPoint(q.x + shift[0], q.y + shift[1])
    assert np.allclose(
        distances_to_point(base, q), distances_to_point(moved, q_moved), rtol=1e-12
    )


def test_dump_clusters_csv_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    clusters = [
        sample_uniform_disk(PlanarPoint(0.0, 0.0), 1e4, 3, rng),
        sample_uniform_disk(PlanarPoint(5e4, -1e4), 2e4, 2, rng),
    ]
    path = tmp_path / "users.csv"
    dump_clusters_csv(clusters, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "cluster_id,user_id,x_m,y_m"
    assert len(lines) == 1 + 3 + 2
    parsed = [line.split(",") for line in lines[1:]]
    assert [(row[0], row[1]) for row in parsed] == [
        ("0", "0"), ("0", "1"), ("0", "2"), ("1", "0"), ("1", "1"),
    ]
    back = np.array([[float(row[2]), float(row[3])] for row in parsed[:3]])
    assert np.allclose(back, clusters[0].users, rtol=1e-8)


def test_dump_clusters_csv_is_byte_stable(tmp_path):
    clusters = [sample_uniform_disk(ORIGIN, 1e4, 5, np.random.default_rng(29))]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dump_clusters_csv(clusters, p1)
    dump_clusters_csv(clusters, p2)
    assert p1.read_bytes() == p2.read_bytes()

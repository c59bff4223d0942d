"""Sample clustered users and check the distance law they obey.

Draws one large cluster, compares the empirical distance-to-point CDF with
the closed form, then realises a whole cell of clusters.
"""
import math

import numpy as np

from leodoppler import (
    CellModel,
    DiskDistanceDistribution,
    PlanarPoint,
    disk_distance_cdf,
    distances_to_point,
    dump_clusters_csv,
    sample_cell,
    sample_uniform_disk,
)
from leodoppler.montecarlo import EmpiricalCdf, ks_distance

rng = np.random.default_rng(2024)

# one cluster, 100k users, distances to a point 150 km from its centre
rho = 100e3
cluster = sample_uniform_disk(PlanarPoint(0.0, 0.0), rho, 100_000, rng)
probe = PlanarPoint(150e3, 0.0)
d = distances_to_point(cluster, probe)

law = DiskDistanceDistribution(radius=rho, offset=150e3)
ks = ks_distance(EmpiricalCdf.from_samples(d), lambda r: disk_distance_cdf(r, law))
print(f"users sampled        {d.size}")
print(f"distance range       [{d.min() / 1e3:.1f}, {d.max() / 1e3:.1f}] km "
      f"(law says [{(150e3 - rho) / 1e3:.0f}, {(150e3 + rho) / 1e3:.0f}])")
print(f"mean distance        {d.mean() / 1e3:.2f} km")
print(f"KS vs closed form    {ks:.5f}  (KS*sqrt(n) = {ks * math.sqrt(d.size):.2f})")

# a full cell: Poisson number of clusters, 4 users each
model = CellModel(r_cell=500e3, lambda_c=8.0 / (math.pi * 500e3**2), rho=50e3, n=4)
clusters = sample_cell(model, rng)
print(f"\ncell realisation     {len(clusters)} clusters x {model.n} users")
for i, c in enumerate(clusters[:5]):
    r_centre = math.hypot(c.center.x, c.center.y)
    print(f"  cluster {i}: centre {r_centre / 1e3:6.1f} km from cell centre")

out = "cell_users.csv"
dump_clusters_csv(clusters, out)
print(f"\nwrote {out}")

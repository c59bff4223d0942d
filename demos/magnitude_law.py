"""Doppler magnitude distribution for a served cluster, plus order statistics.

Evaluates the closed-form CDF/PDF for a 100 km cluster whose centre sits
200 km from the sub-satellite point, prints quantiles, and compares the
best and worst of 8 users. Ends with the altitude effect at zero offset.
"""
import numpy as np

from leodoppler import (
    DopplerMagnitudeDistribution,
    SatelliteConfig,
    doppler_cdf,
    doppler_pdf,
    doppler_quantile,
    doppler_support_max,
    doppler_support_min,
    max_doppler_cdf,
    min_doppler_cdf,
    overhead_cdf,
)

cfg = SatelliteConfig(f_c=2e9, h=600e3, omega_s=1.1e-3)
dist = DopplerMagnitudeDistribution.for_satellite(cfg, rho=100e3, r_hat=200e3)

print(f"Doppler scale A     {dist.a / 1e3:8.3f} kHz")
print(f"support             [{doppler_support_min(dist) / 1e3:.3f}, "
      f"{doppler_support_max(dist) / 1e3:.3f}] kHz\n")

print(f"{'|shift| [kHz]':>14} {'CDF':>8} {'PDF [1/Hz]':>12}")
for x in np.linspace(10e3, 24e3, 8).tolist():
    print(f"{x / 1e3:14.1f} {doppler_cdf(x, dist):8.4f} {doppler_pdf(x, dist):12.3e}")

print()
for p in (0.05, 0.25, 0.5, 0.75, 0.95):
    print(f"quantile {p:4.0%}: {doppler_quantile(p, dist) / 1e3:7.3f} kHz")

# With 8 users in the cluster the scheduler may care about the least and
# the most shifted one; both laws come from powers of the single-user CDF.
print(f"\n{'|shift| [kHz]':>14} {'P(best <= x)':>13} {'P(single <= x)':>15} "
      f"{'P(worst <= x)':>14}")
for x in (12e3, 16e3, 20e3, 24e3):
    print(f"{x / 1e3:14.1f} {min_doppler_cdf(x, dist, 8):13.4f} "
          f"{doppler_cdf(x, dist):15.4f} {max_doppler_cdf(x, dist, 8):14.4f}")

# Altitude effect with the satellite overhead: at small magnitudes the CDF
# grows roughly with h^2, so 600 -> 1200 km better than quadruples it.
cfg_high = SatelliteConfig(f_c=2e9, h=1200e3, omega_s=9.5809e-4)
low = DopplerMagnitudeDistribution.for_satellite(cfg, rho=100e3, r_hat=0.0)
high = DopplerMagnitudeDistribution.for_satellite(cfg_high, rho=100e3, r_hat=0.0)
x_probe = 0.01 * low.a
print(f"\noverhead CDF at {x_probe / 1e3:.3f} kHz:"
      f"  600 km -> {overhead_cdf(x_probe, low):.5f}"
      f"  1200 km -> {overhead_cdf(x_probe, high):.5f}"
      f"  ratio {overhead_cdf(x_probe, high) / overhead_cdf(x_probe, low):.3f}")

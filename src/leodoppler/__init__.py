"""Doppler shift statistics for clustered ground users of a LEO satellite.

The package derives the instantaneous Doppler shift of a circular-orbit
low-Earth-orbit downlink, bounds it by the on-track envelope, and carries
that envelope through the geometry of a uniformly clustered user population
to a closed-form distribution of the Doppler magnitude, including the
CDFs of its minimum and maximum over the cluster. A Monte Carlo layer
replays the same scenes on exact sphere geometry to validate the closed
forms.
"""
from .distributions import (
    DiskDistanceDistribution,
    DopplerMagnitudeDistribution,
    disk_distance_cdf,
    disk_distance_pdf,
    doppler_cdf,
    doppler_pdf,
    doppler_quantile,
    doppler_support_max,
    doppler_support_min,
    max_doppler_cdf,
    min_doppler_cdf,
    overhead_cdf,
    overhead_pdf,
    param_A,
)
from .doppler import (
    PassGeometry,
    doppler_bound,
    doppler_exact,
    epsilon_accuracy_offsets,
    theta_of_alpha_max,
)
from .geometry import (
    EARTH_ANGULAR_VELOCITY_RAD_S,
    EARTH_RADIUS_M,
    SPEED_OF_LIGHT_M_S,
    BelowHorizonError,
    PlanarPoint,
    SatelliteConfig,
    angular_velocity_ecf,
    central_angle,
    elevation_from_central_angle,
    orbital_radius,
    slant_range,
)
from .montecarlo import (
    ComparisonReport,
    ScenarioConfig,
    run_scenario,
    write_report_csv,
    write_summary,
)
from .pointprocess import (
    CellModel,
    ClusterSample,
    distances_to_point,
    dump_clusters_csv,
    sample_cell,
    sample_uniform_disk,
)

__version__ = "0.1.0"

__all__ = [
    "BelowHorizonError",
    "CellModel",
    "ClusterSample",
    "ComparisonReport",
    "DiskDistanceDistribution",
    "DopplerMagnitudeDistribution",
    "EARTH_ANGULAR_VELOCITY_RAD_S",
    "EARTH_RADIUS_M",
    "PassGeometry",
    "PlanarPoint",
    "SPEED_OF_LIGHT_M_S",
    "SatelliteConfig",
    "ScenarioConfig",
    "angular_velocity_ecf",
    "central_angle",
    "disk_distance_cdf",
    "disk_distance_pdf",
    "distances_to_point",
    "doppler_bound",
    "doppler_cdf",
    "doppler_exact",
    "doppler_pdf",
    "doppler_quantile",
    "doppler_support_max",
    "doppler_support_min",
    "dump_clusters_csv",
    "elevation_from_central_angle",
    "epsilon_accuracy_offsets",
    "max_doppler_cdf",
    "min_doppler_cdf",
    "orbital_radius",
    "overhead_cdf",
    "overhead_pdf",
    "param_A",
    "run_scenario",
    "sample_cell",
    "sample_uniform_disk",
    "slant_range",
    "theta_of_alpha_max",
    "write_report_csv",
    "write_summary",
]

"""Trajectory reconstruction and approximation quality (Sections 3.2-3.3).

Critical points expiring from the sliding window accumulate in the MOD's
staging table (:mod:`repro.mod.database`); an offline pass reconstructs
each vessel's course from them, splits it at port stops into
origin-destination *trips* (semantic enrichment), and measures how
faithfully the compressed synopsis approximates the original trace (the
RMSE of Figure 8).
"""

from repro.reconstruct.error import ApproximationError, fleet_rmse, trajectory_rmse
from repro.reconstruct.trips import OpenTrip, Trip, TripSegmenter

__all__ = [
    "ApproximationError",
    "OpenTrip",
    "Trip",
    "TripSegmenter",
    "fleet_rmse",
    "trajectory_rmse",
]

"""Trajectory approximation error: the RMSE of Figure 8.

"Suppose that an original AIS point p_i did not qualify as critical and was
discarded at timestamp tau_i.  To estimate the resulting deviation ... we
interpolated between the pair of adjacent critical points retained
immediately before and after each such p_i.  Assuming a constant velocity
between these two critical points, we obtained its time-aligned point trace
p'_i along the approximate path at timestamp tau_i." — Section 5.1.

One RMSE value is computed per vessel trajectory over its entire motion
history; the benchmark reports the average and maximum across vessels.
"""

import math
import statistics
from dataclasses import dataclass

from repro.ais.stream import PositionalTuple
from repro.geo.haversine import haversine_meters
from repro.geo.interpolate import synchronize_track
from repro.tracking.types import CriticalPoint


@dataclass(frozen=True)
class ApproximationError:
    """Per-fleet RMSE summary: one value per vessel, aggregated."""

    per_vessel_rmse: dict[int, float]

    @property
    def average(self) -> float:
        """Mean RMSE across vessels (the 'avg' series of Figure 8)."""
        if not self.per_vessel_rmse:
            return 0.0
        return statistics.fmean(self.per_vessel_rmse.values())

    @property
    def maximum(self) -> float:
        """Worst vessel RMSE (the 'max' series of Figure 8)."""
        if not self.per_vessel_rmse:
            return 0.0
        return max(self.per_vessel_rmse.values())


def trajectory_rmse(
    original: list[PositionalTuple], critical: list[CriticalPoint]
) -> float:
    """RMSE between one vessel's original trace and its synopsis, meters.

    The synopsis is resampled ("synchronized") at every original timestamp
    by constant-velocity interpolation between adjacent critical points;
    timestamps outside the synopsis span clamp to its endpoints.  Returns
    the root of the mean squared Haversine deviation.
    """
    if not original:
        raise ValueError("original trajectory is empty")
    if not critical:
        raise ValueError("no critical points to reconstruct from")
    ordered = sorted(original, key=lambda p: p.timestamp)
    compressed = [
        point.as_timed_point()
        for point in sorted(critical, key=lambda p: p.timestamp)
    ]
    # Critical points may coincide in time (merged annotations are unique
    # per timestamp, but aggregated stop centroids can collide with the
    # previous point); keep the last per timestamp.
    deduplicated: list[tuple[float, float, int]] = []
    for point in compressed:
        if deduplicated and deduplicated[-1][2] == point[2]:
            deduplicated[-1] = point
        else:
            deduplicated.append(point)
    timestamps = [p.timestamp for p in ordered]
    synchronized = synchronize_track(timestamps, deduplicated)
    squared = [
        haversine_meters(p.lon, p.lat, lon, lat) ** 2
        for p, (lon, lat) in zip(ordered, synchronized)
    ]
    return math.sqrt(statistics.fmean(squared))


def fleet_rmse(
    originals: dict[int, list[PositionalTuple]],
    synopses: dict[int, list[CriticalPoint]],
) -> ApproximationError:
    """Per-vessel RMSE over a fleet.

    Vessels without any critical point are skipped (nothing to reconstruct
    from: typically vessels with a single report).
    """
    per_vessel: dict[int, float] = {}
    for mmsi, original in originals.items():
        critical = synopses.get(mmsi)
        if not critical or not original:
            continue
        per_vessel[mmsi] = trajectory_rmse(original, critical)
    return ApproximationError(per_vessel)

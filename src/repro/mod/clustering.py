"""Spatiotemporal clustering of trips (Section 3.3).

"Hermes MOD incorporates an algorithm for spatiotemporal clustering, which
can help exploring periodicity of trips.  Two (or more) trajectory clusters
may be almost identical spatially, but they are distinct because the
temporal dimension is taken into consideration."

The implementation builds an epsilon-neighbourhood graph over trips using a
combined spatial + temporal distance and returns its connected components
(single-linkage clustering), via a union-find.
"""

from repro.mod.database import MovingObjectDatabase
from repro.mod.queries import trajectory_similarity


def spatiotemporal_distance(
    mod: MovingObjectDatabase,
    trip_a: dict,
    trip_b: dict,
    time_scale_seconds: float = 3600.0,
    samples: int = 12,
) -> float:
    """Combined distance between two trips.

    The spatial part is the synchronized-Euclidean similarity in meters; the
    temporal part is the start-time difference converted to meters through
    ``time_scale_seconds`` (one hour of offset weighs like one kilometer by
    default), so that spatially identical but temporally distinct runs land
    in different clusters.
    """
    spatial = trajectory_similarity(
        mod, trip_a["trip_id"], trip_b["trip_id"], samples=samples
    )
    temporal = abs(trip_a["start_time"] - trip_b["start_time"]) / time_scale_seconds
    return spatial + temporal * 1000.0


def cluster_trips(
    mod: MovingObjectDatabase,
    epsilon_meters: float = 5000.0,
    time_scale_seconds: float = 3600.0,
    min_points: int = 2,
) -> list[list[int]]:
    """Cluster archived trips; returns lists of trip ids per cluster.

    Trips with fewer than two points are skipped (no geometry).  Clusters
    smaller than ``min_points`` are treated as noise and dropped.
    """
    trips = [trip for trip in mod.all_trips() if trip["point_count"] >= 2]
    parent = {trip["trip_id"]: trip["trip_id"] for trip in trips}

    def root(trip_id: int) -> int:
        while parent[trip_id] != trip_id:
            parent[trip_id] = parent[parent[trip_id]]
            trip_id = parent[trip_id]
        return trip_id

    for i, trip_a in enumerate(trips):
        for trip_b in trips[i + 1 :]:
            distance = spatiotemporal_distance(
                mod, trip_a, trip_b, time_scale_seconds
            )
            if distance <= epsilon_meters:
                parent[root(trip_a["trip_id"])] = root(trip_b["trip_id"])
    components: dict[int, list[int]] = {}
    for trip_id in parent:
        components.setdefault(root(trip_id), []).append(trip_id)
    clusters = [
        sorted(component)
        for component in components.values()
        if len(component) >= min_points
    ]
    clusters.sort()
    return clusters

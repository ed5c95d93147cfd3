"""Trip segmentation and semantic enrichment (Section 3.2).

Voyage information in AIS messages "is often missing or error-prone, mainly
because it is updated manually by the crew", so the paper derives trips
automatically: a long-term stop located inside a known port polygon is
labeled with the port's name, and the critical points between two such
distinct stops O and D form a trip from origin port O to destination D.
The origin may be unknown when a vessel was already sailing when tracking
began; points of a vessel that has not yet reached a port pile up as an
open-ended tail awaiting assignment.
"""

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.geo.haversine import haversine_meters
from repro.simulator.world import Port
from repro.tracking.types import CriticalPoint, MovementEventType


@dataclass
class Trip:
    """One port-to-port (or open-origin) voyage of a vessel."""

    mmsi: int
    origin_port: str | None
    destination_port: str
    points: list[CriticalPoint] = field(default_factory=list)

    @property
    def start_time(self) -> int:
        """Departure timestamp (first covered critical point)."""
        return self.points[0].timestamp

    @property
    def end_time(self) -> int:
        """Arrival timestamp (last covered critical point)."""
        return self.points[-1].timestamp

    @property
    def travel_time_seconds(self) -> int:
        """Trip duration."""
        return self.end_time - self.start_time

    @property
    def distance_meters(self) -> float:
        """Length of the reconstructed polyline."""
        total = 0.0
        for before, after in zip(self.points, self.points[1:]):
            total += haversine_meters(before.lon, before.lat, after.lon, after.lat)
        return total

    @property
    def point_count(self) -> int:
        """Critical points covering the trip."""
        return len(self.points)


@dataclass
class OpenTrip:
    """Where one vessel's segmentation stands: the port it last stopped at
    (``None`` until the first port call) and the points of the trip it is
    on, starting at that stop."""

    origin_port: str | None = None
    points: list[CriticalPoint] = field(default_factory=list)


class TripSegmenter:
    """Split per-vessel critical-point sequences into trips at port stops.

    ``min_trip_distance_meters`` guards against spurious micro-trips: a
    vessel docked at a port emits repeated stop events as it drifts at the
    pier, and those must not each count as a voyage.  A segment ending at
    the *same* port it started from (or with unknown origin) only becomes a
    trip when its polyline is at least this long; segments between two
    *distinct* ports always do ("between two such distinct stops O and D,
    the ship sailed from origin port O and reached destination port D").
    """

    def __init__(self, ports: list[Port], min_trip_distance_meters: float = 5000.0):
        self.ports = ports
        self.min_trip_distance_meters = min_trip_distance_meters

    def port_of_stop(self, point: CriticalPoint) -> str | None:
        """Name of the port containing a stop's location, if any."""
        for port in self.ports:
            if port.polygon.contains(point.lon, point.lat):
                return port.name
        return None

    def advance(
        self, open_trip: OpenTrip, points: Iterable[CriticalPoint]
    ) -> list[Trip]:
        """Fold one vessel's next points into its open trip.

        ``points`` are time-ordered and follow every point already folded
        into ``open_trip``.  Returns the trips they close; ``open_trip`` is
        left holding the origin port and points of the trip still open.
        This is the only segmentation step: :meth:`segment` is this fold
        from an empty state, and the MOD keeps one state per vessel.
        """
        trips: list[Trip] = []
        for point in points:
            open_trip.points.append(point)
            if not point.has(MovementEventType.STOP_END):
                continue
            port_name = self.port_of_stop(point)
            if port_name is None:
                continue
            origin = open_trip.origin_port
            candidate = Trip(
                mmsi=point.mmsi,
                origin_port=origin,
                destination_port=port_name,
                points=open_trip.points,
            )
            distinct_ports = origin is not None and origin != port_name
            if distinct_ports or (
                candidate.distance_meters >= self.min_trip_distance_meters
            ):
                trips.append(candidate)
            # Whether a voyage or just pier drift, the vessel is now at this
            # port: the stop anchors the next trip as its departure point.
            open_trip.origin_port = port_name
            open_trip.points = [point]
        return trips

    def segment(
        self, points: list[CriticalPoint]
    ) -> tuple[list[Trip], list[CriticalPoint]]:
        """Segment one vessel's critical points into trips.

        Returns ``(trips, residue)`` where ``residue`` is the open-ended
        tail from the last identified port stop on (the vessel is still
        sailing toward an unknown destination — about 25 % of critical
        points in the paper's Table 4 fell in that category).  The anchor
        stop heads the residue even when nothing followed it: it is the
        next trip's departure point, and dropping it would lose that
        trip's origin.
        """
        open_trip = OpenTrip()
        trips = self.advance(open_trip, sorted(points, key=lambda p: p.timestamp))
        return trips, open_trip.points

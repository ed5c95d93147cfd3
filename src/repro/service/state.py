"""Query-side state of the live service.

The HTTP API answers two questions the streaming pipeline itself never
materializes: "where is vessel X right now?" (:class:`VesselStateStore`,
the last-known velocity-vector snapshot derived from consecutive scanned
positions) and "what happened recently?" (:class:`AlertRing`, a bounded
ring of recognized complex events addressable by a monotone sequence
number, so pollers can resume with ``/alerts?since=<seq>``).
"""

from dataclasses import dataclass

from repro.ais.stream import PositionalTuple
from repro.geo.haversine import haversine_meters, initial_bearing_degrees
from repro.geo.units import mps_to_knots
from repro.maritime.recognizer import Alert
from repro.service.protocol import alert_to_dict


@dataclass
class VesselSnapshot:
    """Last-known kinematic state of one vessel."""

    mmsi: int
    lon: float
    lat: float
    timestamp: int
    speed_mps: float = 0.0
    heading_degrees: float = 0.0
    positions_seen: int = 0

    def to_dict(self) -> dict:
        return {
            "mmsi": self.mmsi,
            "lon": self.lon,
            "lat": self.lat,
            "timestamp": self.timestamp,
            "speed_mps": self.speed_mps,
            "speed_knots": mps_to_knots(self.speed_mps),
            "heading_degrees": self.heading_degrees,
            "positions_seen": self.positions_seen,
        }


class VesselStateStore:
    """Per-MMSI last-known position and velocity vector.

    Velocity is derived from the two most recent positions (great-circle
    distance over elapsed time, initial bearing as heading) — the same
    derivation the Mobility Tracker applies, kept separate here so the
    store reads only the positions the service ingested.
    A position later than the vessel's latest timestamp sets the pair
    the velocity comes from; the trigonometry runs in :meth:`get`, so
    the per-position fold on the event loop stays a few assignments.
    """

    def __init__(self) -> None:
        self._snapshots: dict[int, VesselSnapshot] = {}
        #: MMSI -> ``(lon0, lat0, lon1, lat1, dt)``: the latest move
        #: forward in time, from the previous position to that one.
        self._moves: dict[int, tuple[float, float, float, float, int]] = {}

    def update(self, positions: list[PositionalTuple]) -> None:
        """Fold one batch of scanned positions into the snapshots."""
        for position in positions:
            snapshot = self._snapshots.get(position.mmsi)
            if snapshot is None:
                self._snapshots[position.mmsi] = VesselSnapshot(
                    mmsi=position.mmsi,
                    lon=position.lon,
                    lat=position.lat,
                    timestamp=position.timestamp,
                    positions_seen=1,
                )
                continue
            dt = position.timestamp - snapshot.timestamp
            if dt > 0:
                self._moves[position.mmsi] = (
                    snapshot.lon, snapshot.lat, position.lon, position.lat, dt
                )
                snapshot.timestamp = position.timestamp
            snapshot.lon = position.lon
            snapshot.lat = position.lat
            snapshot.positions_seen += 1

    def get(self, mmsi: int) -> VesselSnapshot | None:
        """Snapshot of one vessel, or ``None`` if never seen."""
        snapshot = self._snapshots.get(mmsi)
        move = self._moves.get(mmsi)
        if move is not None:
            lon0, lat0, lon1, lat1, dt = move
            snapshot.speed_mps = haversine_meters(lon0, lat0, lon1, lat1) / dt
            snapshot.heading_degrees = initial_bearing_degrees(lon0, lat0, lon1, lat1)
        return snapshot

    def mmsis(self) -> list[int]:
        """All vessels seen so far, sorted."""
        return sorted(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)


class AlertRing:
    """Bounded ring of recent alerts with monotone sequence numbers.

    ``since(n)`` returns every retained alert with sequence > ``n`` —
    clients poll with the ``last_seq`` of their previous response.  The
    ring never blocks the pipeline: old alerts simply fall off.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: list[dict] = []
        self._next_seq = 1

    def append(self, query_time: int, alerts: tuple[Alert, ...]) -> None:
        """Record one slide's alerts."""
        for alert in alerts:
            entry = {"seq": self._next_seq, "query_time": query_time}
            entry.update(alert_to_dict(alert))
            self._entries.append(entry)
            self._next_seq += 1
        if len(self._entries) > self.capacity:
            del self._entries[: len(self._entries) - self.capacity]

    def since(self, seq: int = 0) -> list[dict]:
        """Retained alerts with sequence number greater than ``seq``."""
        if not self._entries or seq >= self._entries[-1]["seq"]:
            return []
        # Entries are seq-ordered; find the cut by simple scan from the
        # back (polling gaps are short in practice).
        index = len(self._entries)
        while index > 0 and self._entries[index - 1]["seq"] > seq:
            index -= 1
        return list(self._entries[index:])

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest alert ever appended (0 if none)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._entries)

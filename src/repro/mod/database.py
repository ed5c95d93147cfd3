"""The Moving Objects Database: staging, reconstruction, retrieval.

Mirrors the offline half of Figure 1: batches of delta critical points are
inserted into the staging table; :meth:`MovingObjectDatabase.reconstruct`
periodically converts each vessel's staged sequence into disjoint trip
segments ("a long journey breaks up into smaller trips between ports"),
leaving open-ended residues staged until a destination port is identified.
Only the last segment per vessel ever receives updates, which is the
property Hermes exploits to keep update costs low — and the one
reconstruction exploits here.

Maintenance is incremental.  Per staged vessel the database keeps its
staging rows and the :class:`~repro.reconstruct.trips.OpenTrip` they fold
into, plus one high-water mark on ``staging.id``.  A call reads only the
rows above the mark, and advances only the vessels they belong to, in
ascending MMSI (so trip ids follow the order a full scan would give).
sqlite is touched only to read those rows, insert closed trips and delete
what they covered.  The result is exactly that of re-segmenting every
vessel's whole staged residue from scratch (``tests/mod`` keeps that
version as the oracle) because two cases refold a vessel from an empty
state over its kept rows:

* **late rows** — a new row sorting before the vessel's last kept row in
  (timestamp, id) order (late delta points, a spill drained after an
  outage);
* **a trip closed in the previous call** — the rows kept are those at or
  after the cutoff timestamp, and rows tied with the open trip's first
  point are re-segmented, with or without new rows.

A reopened on-disk database starts at high-water 0: its first call folds
the whole staging table, with the same code.  A failed call rolls back
and leaves the mark and the kept state untouched; ``close()`` drops them.
"""

import sqlite3
import time
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass

from repro import obs
from repro.mod.schema import SCHEMA_STATEMENTS
from repro.resilience.faults import fault_point
from repro.reconstruct.trips import OpenTrip, Trip, TripSegmenter
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import Port
from repro.tracking.types import CriticalPoint, MovementEventType


def _timestamp(point: CriticalPoint) -> int:
    return point.timestamp


def _encode_annotations(annotations: Iterable[MovementEventType]) -> str:
    return ",".join(sorted(a.value for a in annotations))


def _decode_annotations(encoded: str) -> frozenset[MovementEventType]:
    if not encoded:
        return frozenset()
    return frozenset(MovementEventType(value) for value in encoded.split(","))


@dataclass
class _StagedVessel:
    """What reconstruction keeps of one vessel between calls."""

    #: The vessel's staging rows, in (timestamp, id) order.
    rows: list[CriticalPoint]
    #: ``rows`` folded from an empty state — unless the vessel closed a
    #: trip in the last call, which makes it refold from ``rows`` next.
    open_trip: OpenTrip


class MovingObjectDatabase:
    """SQLite-backed archive of trajectories and trips.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (default) for tests and
        benchmarks.
    ports:
        Known port polygons used by trip segmentation.
    """

    def __init__(self, ports: list[Port], path: str = ":memory:"):
        # The database has a single logical owner (the pipeline system) and
        # every access is serialized, but that owner may run on a worker
        # thread other than the constructing one — the live service drives
        # slides through run_in_executor — so sqlite's per-thread affinity
        # check must be relaxed.
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute("PRAGMA journal_mode = MEMORY")
        self._connection.execute("PRAGMA synchronous = OFF")
        for statement in SCHEMA_STATEMENTS:
            self._connection.execute(statement)
        self._connection.commit()
        self._segmenter = TripSegmenter(ports)
        #: Segmentation state per staged vessel; the staging rows with
        #: ``id > _high_water`` are the ones not folded into it yet.
        self._vessels: dict[int, _StagedVessel] = {}
        self._high_water = 0
        #: Vessels that closed a trip in the last call.
        self._revisit: set[int] = set()

    def close(self) -> None:
        """Close the underlying connection and drop the kept state."""
        self._connection.close()
        self._vessels = {}
        self._revisit = set()

    def __enter__(self) -> "MovingObjectDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # static data
    # ------------------------------------------------------------------

    def load_vessels(self, specs: Iterable[VesselSpec]) -> int:
        """Insert or replace static vessel records."""
        rows = [
            (spec.mmsi, spec.vessel_type.value, spec.draft_meters, int(spec.is_fishing))
            for spec in specs
        ]
        self._connection.executemany(
            "INSERT OR REPLACE INTO vessels (mmsi, vessel_type, draft_meters, "
            "is_fishing) VALUES (?, ?, ?, ?)",
            rows,
        )
        self._connection.commit()
        return len(rows)

    def vessel(self, mmsi: int) -> tuple | None:
        """One static vessel row, or ``None``."""
        cursor = self._connection.execute(
            "SELECT mmsi, vessel_type, draft_meters, is_fishing FROM vessels "
            "WHERE mmsi = ?",
            (mmsi,),
        )
        return cursor.fetchone()

    # ------------------------------------------------------------------
    # staging (the online insert path)
    # ------------------------------------------------------------------

    def stage_points(self, points: list[CriticalPoint]) -> int:
        """Append a batch of delta critical points to the staging table."""
        with obs.span("mod.stage_points"):
            return self._stage_points(points)

    def _stage_points(self, points: list[CriticalPoint]) -> int:
        fault_point("mod.write")
        rows = [
            (
                point.mmsi,
                point.lon,
                point.lat,
                point.timestamp,
                _encode_annotations(point.annotations),
                point.speed_mps,
                point.heading_degrees,
                point.duration_seconds,
            )
            for point in points
        ]
        self._connection.executemany(
            "INSERT INTO staging (mmsi, lon, lat, timestamp, annotations, "
            "speed_mps, heading_degrees, duration_seconds) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._connection.commit()
        obs.count("mod.staged_points", len(rows))
        return len(rows)

    def staged_count(self) -> int:
        """Rows currently in the staging table."""
        cursor = self._connection.execute("SELECT COUNT(*) FROM staging")
        return cursor.fetchone()[0]

    def staged_points(self, mmsi: int) -> list[CriticalPoint]:
        """Staged points of one vessel, in timestamp order."""
        cursor = self._connection.execute(
            "SELECT mmsi, lon, lat, timestamp, annotations, speed_mps, "
            "heading_degrees, duration_seconds FROM staging "
            "WHERE mmsi = ? ORDER BY timestamp, id",
            (mmsi,),
        )
        return [self._row_to_point(row) for row in cursor.fetchall()]

    # ------------------------------------------------------------------
    # reconstruction (the offline path)
    # ------------------------------------------------------------------

    def reconstruct(self, timings: dict | None = None) -> int:
        """Segment the staged points into trips; returns the number of new
        trips loaded.  Only rows staged since the last call are read and
        folded (module docstring).

        Points belonging to completed trips are removed from staging;
        open-ended residues stay staged, awaiting a destination port
        ("these points will be piling up in the staging table").

        When ``timings`` is given, the seconds spent reading and segmenting
        the staged points and in loading trips are accumulated under
        ``"reconstruction"`` and ``"loading"`` — the phase split of
        Figure 10; together they cover the whole call.
        """
        with obs.span("mod.reconstruct"):
            return self._reconstruct(timings)

    def _reconstruct(self, timings: dict | None = None) -> int:
        fault_point("mod.reconstruct")
        # The reconstruction clock owns whatever loading does not — the
        # staging reads and loop bookkeeping as well as segmentation — so
        # the two phases cover the whole call and a slide's timings add up
        # to the slide (tests/pipeline/test_observability.py).
        started = time.perf_counter()
        # A rowid range search; ``ORDER BY mmsi, timestamp`` would make
        # sqlite walk the whole staging index instead.  The stable sort
        # keeps ties in id order: (mmsi, timestamp, id).
        rows = self._connection.execute(
            "SELECT id, mmsi, lon, lat, timestamp, annotations, speed_mps, "
            "heading_degrees, duration_seconds FROM staging "
            "WHERE id > ? ORDER BY id",
            (self._high_water,),
        ).fetchall()
        fresh: dict[int, list[CriticalPoint]] = {}
        for row in sorted(rows, key=lambda row: (row[1], row[4])):
            fresh.setdefault(row[1], []).append(self._row_to_point(row[1:]))
        visited = sorted(fresh.keys() | self._revisit)
        kept: dict[int, _StagedVessel] = {}
        revisit: set[int] = set()
        new_trips = refolds = 0
        loading_seconds = 0.0
        try:
            for mmsi in visited:
                vessel = self._vessels.get(mmsi) or _StagedVessel([], OpenTrip())
                points = fresh.get(mmsi, [])
                staged = vessel.rows + points
                late = bool(vessel.rows and points) and (
                    points[0].timestamp < vessel.rows[-1].timestamp
                )
                if late or mmsi in self._revisit:
                    # Refold from an empty state.  New rows carry larger
                    # ids than kept ones, so a stable sort by timestamp
                    # restores (timestamp, id) order.
                    if late:
                        refolds += 1
                    staged.sort(key=_timestamp)
                    open_trip = OpenTrip()
                    trips = self._segmenter.advance(open_trip, staged)
                else:
                    # A copy, so that a failed call leaves the state as it was.
                    open_trip = OpenTrip(
                        vessel.open_trip.origin_port, vessel.open_trip.points.copy()
                    )
                    trips = self._segmenter.advance(open_trip, points)
                if trips:
                    loading_started = time.perf_counter()
                    for trip in trips:
                        self._insert_trip(trip)
                    new_trips += len(trips)
                    # Everything before the open trip has been assigned to
                    # a trip; rows tied with its first point stay staged
                    # and are re-segmented on the next call.
                    cutoff = open_trip.points[0].timestamp
                    self._connection.execute(
                        "DELETE FROM staging WHERE mmsi = ? AND timestamp < ?",
                        (mmsi, cutoff),
                    )
                    loading_seconds += time.perf_counter() - loading_started
                    staged = staged[bisect_left(staged, cutoff, key=_timestamp):]
                    revisit.add(mmsi)
                kept[mmsi] = _StagedVessel(staged, open_trip)
            loading_started = time.perf_counter()
            self._connection.commit()
        except BaseException:
            self._connection.rollback()
            raise
        finished = time.perf_counter()
        self._vessels.update(kept)
        self._revisit = revisit
        if rows:
            self._high_water = rows[-1][0]
        loading_seconds += finished - loading_started
        reconstruction_seconds = finished - started - loading_seconds
        if timings is not None:
            timings["reconstruction"] = (
                timings.get("reconstruction", 0.0) + reconstruction_seconds
            )
            timings["loading"] = timings.get("loading", 0.0) + loading_seconds
        obs.observe("mod.reconstruct.segmentation_seconds", reconstruction_seconds)
        obs.observe("mod.reconstruct.loading_seconds", loading_seconds)
        obs.count("mod.reconstruct.rows_read", len(rows))
        obs.count("mod.reconstruct.refolds", refolds)
        obs.count("mod.reconstruct.vessels_visited", len(visited))
        obs.count("mod.trips_loaded", new_trips)
        return new_trips

    def _insert_trip(self, trip: Trip) -> None:
        cursor = self._connection.execute(
            "INSERT INTO trips (mmsi, origin_port, destination_port, "
            "start_time, end_time, distance_meters, point_count) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                trip.mmsi,
                trip.origin_port,
                trip.destination_port,
                trip.start_time,
                trip.end_time,
                trip.distance_meters,
                trip.point_count,
            ),
        )
        trip_id = cursor.lastrowid
        self._connection.executemany(
            "INSERT INTO trip_points (trip_id, seq, lon, lat, timestamp, "
            "annotations, speed_mps, duration_seconds) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    trip_id,
                    seq,
                    point.lon,
                    point.lat,
                    point.timestamp,
                    _encode_annotations(point.annotations),
                    point.speed_mps,
                    point.duration_seconds,
                )
                for seq, point in enumerate(trip.points)
            ],
        )

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------

    def trip_count(self) -> int:
        """Number of archived trips."""
        cursor = self._connection.execute("SELECT COUNT(*) FROM trips")
        return cursor.fetchone()[0]

    def trips_of_vessel(self, mmsi: int) -> list[dict]:
        """Archived trips of one vessel, as plain dicts."""
        cursor = self._connection.execute(
            "SELECT trip_id, mmsi, origin_port, destination_port, start_time, "
            "end_time, distance_meters, point_count FROM trips "
            "WHERE mmsi = ? ORDER BY start_time",
            (mmsi,),
        )
        return [self._trip_row_to_dict(row) for row in cursor.fetchall()]

    def all_trips(self) -> list[dict]:
        """Every archived trip."""
        cursor = self._connection.execute(
            "SELECT trip_id, mmsi, origin_port, destination_port, start_time, "
            "end_time, distance_meters, point_count FROM trips ORDER BY trip_id"
        )
        return [self._trip_row_to_dict(row) for row in cursor.fetchall()]

    def trip_points(self, trip_id: int) -> list[CriticalPoint]:
        """Geometry of one trip, as critical points in sequence order."""
        cursor = self._connection.execute(
            "SELECT t.mmsi, p.lon, p.lat, p.timestamp, p.annotations, "
            "p.speed_mps, 0.0, p.duration_seconds "
            "FROM trip_points p JOIN trips t ON t.trip_id = p.trip_id "
            "WHERE p.trip_id = ? ORDER BY p.seq",
            (trip_id,),
        )
        return [self._row_to_point(row) for row in cursor.fetchall()]

    @property
    def connection(self) -> sqlite3.Connection:
        """The raw connection, for the query and analytics helpers."""
        return self._connection

    # ------------------------------------------------------------------
    # row mapping
    # ------------------------------------------------------------------

    @staticmethod
    def _row_to_point(row: tuple) -> CriticalPoint:
        mmsi, lon, lat, timestamp, annotations, speed, heading, duration = row
        return CriticalPoint(
            mmsi=mmsi,
            lon=lon,
            lat=lat,
            timestamp=timestamp,
            annotations=_decode_annotations(annotations),
            speed_mps=speed,
            heading_degrees=heading,
            duration_seconds=duration,
        )

    @staticmethod
    def _trip_row_to_dict(row: tuple) -> dict:
        keys = (
            "trip_id",
            "mmsi",
            "origin_port",
            "destination_port",
            "start_time",
            "end_time",
            "distance_meters",
            "point_count",
        )
        return dict(zip(keys, row))

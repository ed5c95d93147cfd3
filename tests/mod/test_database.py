"""Tests for the Moving Objects Database."""

import pytest

from repro.geo.polygon import GeoPolygon
from repro.mod.database import MovingObjectDatabase
from repro.simulator.vessel import VesselSpec, VesselType
from repro.simulator.world import Port
from repro.tracking.types import CriticalPoint, MovementEventType

PORT_A = Port("alpha", 23.0, 38.0, GeoPolygon.rectangle("pa", 23.0, 38.0, 3000, 3000))
PORT_B = Port("beta", 24.0, 38.0, GeoPolygon.rectangle("pb", 24.0, 38.0, 3000, 3000))


def stop_at(port, timestamp, mmsi=1):
    return CriticalPoint(
        mmsi=mmsi,
        lon=port.lon,
        lat=port.lat,
        timestamp=timestamp,
        annotations=frozenset({MovementEventType.STOP_END}),
        duration_seconds=600,
    )


def waypoint(lon, timestamp, mmsi=1):
    return CriticalPoint(
        mmsi=mmsi,
        lon=lon,
        lat=38.0,
        timestamp=timestamp,
        annotations=frozenset(
            {MovementEventType.TURN, MovementEventType.SPEED_CHANGE}
        ),
        speed_mps=5.0,
    )


VOYAGE = [
    stop_at(PORT_A, 0),
    waypoint(23.3, 1000),
    waypoint(23.6, 2000),
    stop_at(PORT_B, 3000),
]


@pytest.fixture()
def mod():
    with MovingObjectDatabase([PORT_A, PORT_B]) as database:
        yield database


class TestVessels:
    def test_load_and_read(self, mod):
        specs = [
            VesselSpec(1, VesselType.FERRY, 5.0, False),
            VesselSpec(2, VesselType.FISHING, 3.0, True),
        ]
        assert mod.load_vessels(specs) == 2
        row = mod.vessel(2)
        assert row == (2, "fishing", 3.0, 1)
        assert mod.vessel(404) is None

    def test_replace_on_conflict(self, mod):
        mod.load_vessels([VesselSpec(1, VesselType.FERRY, 5.0, False)])
        mod.load_vessels([VesselSpec(1, VesselType.TANKER, 9.0, False)])
        assert mod.vessel(1)[1] == "tanker"


class TestStaging:
    def test_stage_and_count(self, mod):
        assert mod.stage_points(VOYAGE) == 4
        assert mod.staged_count() == 4

    def test_staged_points_round_trip(self, mod):
        mod.stage_points(VOYAGE)
        points = mod.staged_points(1)
        assert [p.timestamp for p in points] == [0, 1000, 2000, 3000]
        # Annotations survive the encode/decode cycle.
        assert points[1].annotations == frozenset(
            {MovementEventType.TURN, MovementEventType.SPEED_CHANGE}
        )
        assert points[0].duration_seconds == 600


class TestReconstruction:
    def test_voyage_becomes_trip(self, mod):
        mod.stage_points(VOYAGE)
        assert mod.reconstruct() == 1
        assert mod.trip_count() == 1
        trip = mod.all_trips()[0]
        assert trip["origin_port"] == "alpha"
        assert trip["destination_port"] == "beta"
        assert trip["point_count"] == 4

    def test_assigned_points_leave_staging(self, mod):
        mod.stage_points(VOYAGE)
        mod.reconstruct()
        # The trip-closing stop stays staged as the next voyage's origin.
        assert mod.staged_count() <= 1

    def test_open_ended_residue_stays(self, mod):
        mod.stage_points(VOYAGE[:3])  # no destination port yet
        assert mod.reconstruct() == 0
        assert mod.staged_count() == 3

    def test_incremental_reconstruction(self, mod):
        mod.stage_points(VOYAGE[:3])
        mod.reconstruct()
        mod.stage_points(VOYAGE[3:])
        assert mod.reconstruct() == 1
        assert mod.trip_count() == 1

    def test_trip_points_geometry(self, mod):
        mod.stage_points(VOYAGE)
        mod.reconstruct()
        trip = mod.all_trips()[0]
        points = mod.trip_points(trip["trip_id"])
        assert [p.timestamp for p in points] == [0, 1000, 2000, 3000]
        assert points[0].mmsi == 1

    def test_timings_instrumentation(self, mod):
        mod.stage_points(VOYAGE)
        timings = {}
        mod.reconstruct(timings)
        assert timings["reconstruction"] >= 0.0
        assert timings["loading"] >= 0.0

    def test_multiple_vessels(self, mod):
        voyage_2 = [
            stop_at(PORT_B, 0, mmsi=2),
            waypoint(23.5, 1000, mmsi=2),
            stop_at(PORT_A, 2000, mmsi=2),
        ]
        mod.stage_points(VOYAGE + voyage_2)
        assert mod.reconstruct() == 2
        assert len(mod.trips_of_vessel(1)) == 1
        assert len(mod.trips_of_vessel(2)) == 1
        assert mod.trips_of_vessel(2)[0]["destination_port"] == "alpha"

    def test_failed_reconstruct_is_rolled_back_not_archived_twice(
        self, mod, monkeypatch
    ):
        mod.stage_points([
            stop_at(PORT_A, 0), stop_at(PORT_B, 3600), stop_at(PORT_A, 7200),
        ])
        insert_trip = mod._insert_trip
        inserted = []

        def fail_on_second_trip(trip):
            inserted.append(trip)
            if len(inserted) == 2:
                raise RuntimeError("disk full")
            insert_trip(trip)

        monkeypatch.setattr(mod, "_insert_trip", fail_on_second_trip)
        with pytest.raises(RuntimeError, match="disk full"):
            mod.reconstruct()
        assert mod.trip_count() == 0  # the first trip was rolled back
        monkeypatch.setattr(mod, "_insert_trip", insert_trip)
        # A later commit must not persist anything of the failed call.
        mod.stage_points([stop_at(PORT_A, 9000)])
        assert mod.reconstruct() == 2
        itineraries = [
            (trip["origin_port"], trip["destination_port"])
            for trip in mod.all_trips()
        ]
        assert itineraries == [("alpha", "beta"), ("beta", "alpha")]

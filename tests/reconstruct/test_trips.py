"""Tests for trip segmentation and semantic enrichment."""

import pytest

from repro.geo.polygon import GeoPolygon
from repro.reconstruct.trips import Trip, TripSegmenter
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


def waypoint(lon, timestamp, mmsi=1, kind=MovementEventType.TURN):
    return CriticalPoint(
        mmsi=mmsi,
        lon=lon,
        lat=38.0,
        timestamp=timestamp,
        annotations=frozenset({kind}),
    )


@pytest.fixture()
def segmenter():
    return TripSegmenter([PORT_A, PORT_B])


class TestPortOfStop:
    def test_inside_port(self, segmenter):
        assert segmenter.port_of_stop(stop_at(PORT_A, 0)) == "alpha"

    def test_open_sea(self, segmenter):
        assert segmenter.port_of_stop(waypoint(23.5, 0)) is None


class TestSegmentation:
    def test_voyage_between_distinct_ports(self, segmenter):
        points = [
            stop_at(PORT_A, 0),
            waypoint(23.3, 1000),
            waypoint(23.6, 2000),
            stop_at(PORT_B, 3000),
        ]
        trips, residue = segmenter.segment(points)
        assert len(trips) == 1
        trip = trips[0]
        assert trip.origin_port == "alpha"
        assert trip.destination_port == "beta"
        assert trip.point_count == 4
        # The closing stop stays as the departure point of the next trip.
        assert residue == [points[-1]]

    def test_unknown_origin_trip(self, segmenter):
        # Tracking starts mid-voyage: the first port call closes a trip
        # with unknown origin (if long enough).
        points = [
            waypoint(23.3, 0),
            waypoint(23.6, 1000),
            stop_at(PORT_B, 2000),
        ]
        trips, residue = segmenter.segment(points)
        assert len(trips) == 1
        assert trips[0].origin_port is None
        assert trips[0].destination_port == "beta"

    def test_pier_drift_not_a_trip(self, segmenter):
        # Repeated stops at the same port with negligible movement.
        points = [
            stop_at(PORT_A, 0),
            stop_at(PORT_A, 1000),
            stop_at(PORT_A, 2000),
        ]
        trips, residue = segmenter.segment(points)
        assert trips == []

    def test_round_trip_same_port_counts_when_long(self, segmenter):
        # Out and back to the same port covering > 5 km each way.
        points = [
            stop_at(PORT_A, 0),
            waypoint(23.2, 1000),
            waypoint(23.4, 2000),  # ~35 km out
            waypoint(23.2, 3000),
            stop_at(PORT_A, 4000),
        ]
        trips, _ = segmenter.segment(points)
        assert len(trips) == 1
        assert trips[0].origin_port == "alpha"
        assert trips[0].destination_port == "alpha"

    def test_open_ended_residue(self, segmenter):
        points = [
            stop_at(PORT_A, 0),
            waypoint(23.3, 1000),
            waypoint(23.6, 2000),
        ]
        trips, residue = segmenter.segment(points)
        assert trips == []
        # The residue keeps everything, awaiting a destination port.
        assert len(residue) == 3

    def test_two_voyages(self, segmenter):
        points = [
            stop_at(PORT_A, 0),
            waypoint(23.5, 1000),
            stop_at(PORT_B, 2000),
            waypoint(23.5, 3000),
            stop_at(PORT_A, 4000),
        ]
        trips, residue = segmenter.segment(points)
        assert [(t.origin_port, t.destination_port) for t in trips] == [
            ("alpha", "beta"),
            ("beta", "alpha"),
        ]
        assert residue == [points[-1]]

    def test_unordered_input_sorted(self, segmenter):
        points = [
            stop_at(PORT_B, 3000),
            stop_at(PORT_A, 0),
            waypoint(23.5, 1500),
        ]
        trips, _ = segmenter.segment(points)
        assert len(trips) == 1
        assert trips[0].start_time == 0

    def test_empty_input(self, segmenter):
        assert segmenter.segment([]) == ([], [])

    def test_non_port_stops_do_not_split(self, segmenter):
        # A stop in open sea (e.g. anchorage) does not end a trip.
        anchorage = CriticalPoint(
            mmsi=1,
            lon=23.5,
            lat=38.3,
            timestamp=1500,
            annotations=frozenset({MovementEventType.STOP_END}),
        )
        points = [
            stop_at(PORT_A, 0),
            anchorage,
            stop_at(PORT_B, 3000),
        ]
        trips, _ = segmenter.segment(points)
        assert len(trips) == 1
        assert trips[0].point_count == 3


class TestTripProperties:
    def test_metrics(self):
        trip = Trip(
            mmsi=1,
            origin_port="alpha",
            destination_port="beta",
            points=[
                waypoint(23.0, 0),
                waypoint(23.5, 1800),
                waypoint(24.0, 3600),
            ],
        )
        assert trip.start_time == 0
        assert trip.end_time == 3600
        assert trip.travel_time_seconds == 3600
        assert trip.point_count == 3
        assert trip.distance_meters == pytest.approx(87_700, rel=0.05)

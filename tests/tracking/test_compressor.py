"""Tests for the compressor: events -> critical points."""

import pytest

from repro.tracking import Compressor, MovementEventType, WindowSpec
from repro.tracking.compressor import merge_events_into_critical_points
from repro.tracking.types import MovementEvent
from tests.tracking.helpers import TraceBuilder
from tests.tracking.oracle import MobilityTracker


def make_event(kind, mmsi=1, timestamp=0, duration=0, lon=24.0, lat=38.0):
    return MovementEvent(kind, mmsi, lon, lat, timestamp, duration_seconds=duration)


class TestMerging:
    def test_pause_and_off_course_filtered(self):
        points = merge_events_into_critical_points(
            [
                make_event(MovementEventType.PAUSE),
                make_event(MovementEventType.OFF_COURSE, timestamp=1),
            ]
        )
        assert points == []

    def test_critical_kinds_survive(self):
        points = merge_events_into_critical_points(
            [make_event(MovementEventType.TURN, timestamp=5)]
        )
        assert len(points) == 1
        assert points[0].has(MovementEventType.TURN)

    def test_simultaneous_events_merge(self):
        points = merge_events_into_critical_points(
            [
                make_event(MovementEventType.TURN, timestamp=5),
                make_event(MovementEventType.SPEED_CHANGE, timestamp=5),
            ]
        )
        assert len(points) == 1
        assert points[0].annotations == frozenset(
            {MovementEventType.TURN, MovementEventType.SPEED_CHANGE}
        )

    def test_different_vessels_not_merged(self):
        points = merge_events_into_critical_points(
            [
                make_event(MovementEventType.TURN, mmsi=1, timestamp=5),
                make_event(MovementEventType.TURN, mmsi=2, timestamp=5),
            ]
        )
        assert len(points) == 2

    def test_representative_is_longest_duration(self):
        # An aggregated stop centroid outranks an instantaneous annotation.
        points = merge_events_into_critical_points(
            [
                make_event(MovementEventType.SPEED_CHANGE, timestamp=5, lon=24.0),
                make_event(
                    MovementEventType.STOP_END,
                    timestamp=5,
                    duration=600,
                    lon=24.5,
                ),
            ]
        )
        assert len(points) == 1
        assert points[0].lon == 24.5
        assert points[0].duration_seconds == 600

    def test_output_sorted_by_vessel_and_time(self):
        points = merge_events_into_critical_points(
            [
                make_event(MovementEventType.TURN, mmsi=2, timestamp=10),
                make_event(MovementEventType.TURN, mmsi=1, timestamp=20),
                make_event(MovementEventType.TURN, mmsi=1, timestamp=5),
            ]
        )
        assert [(p.mmsi, p.timestamp) for p in points] == [(1, 5), (1, 20), (2, 10)]


class TestCompressorWindow:
    def test_slide_returns_fresh_and_expired(self):
        compressor = Compressor(WindowSpec(100, 50))
        fresh, expired = compressor.slide(
            [make_event(MovementEventType.TURN, timestamp=10)], 50,
            raw_position_count=20,
        )
        assert len(fresh) == 1
        assert expired == []
        fresh, expired = compressor.slide(
            [make_event(MovementEventType.TURN, timestamp=120)], 150,
            raw_position_count=20,
        )
        assert len(fresh) == 1
        assert [p.timestamp for p in expired] == [10]

    def test_synopsis_is_window_contents(self):
        compressor = Compressor(WindowSpec(1000, 50))
        compressor.slide(
            [
                make_event(MovementEventType.TURN, mmsi=2, timestamp=10),
                make_event(MovementEventType.TURN, mmsi=1, timestamp=20),
            ],
            50,
        )
        synopsis = compressor.synopsis()
        assert [(p.mmsi, p.timestamp) for p in synopsis] == [(1, 20), (2, 10)]
        assert len(compressor.synopsis(1)) == 1

    def test_compression_statistics(self):
        compressor = Compressor(WindowSpec(1000, 50))
        compressor.slide(
            [make_event(MovementEventType.TURN, timestamp=10)], 50,
            raw_position_count=100,
        )
        stats = compressor.statistics
        assert stats.raw_positions == 100
        assert stats.critical_points == 1
        assert stats.compression_ratio == pytest.approx(0.99)

    def test_ratio_zero_before_any_input(self):
        compressor = Compressor(WindowSpec(1000, 50))
        assert compressor.statistics.compression_ratio == 0.0


class TestEndToEndCompression:
    def test_high_compression_on_realistic_trace(self, tracker_class):
        # A ferry-like trace: cruise, turn, stop, cruise -> few critical pts.
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .cruise(90.0, 14.0, 40)
            .cruise(30.0, 14.0, 40)
            .halt(20, jitter_meters=4.0)
            .cruise(180.0, 14.0, 40)
            .build()
        )
        events = tracker.process_batch(trace) + tracker.finalize()
        compressor = Compressor(WindowSpec.of_hours(24, 1))
        fresh, _ = compressor.slide(
            events, trace[-1].timestamp, raw_position_count=len(trace)
        )
        ratio = compressor.statistics.compression_ratio
        assert ratio > 0.9
        # Critical points cover the course change and the stop.
        kinds = {kind for p in fresh for kind in p.annotations}
        assert MovementEventType.TURN in kinds
        assert MovementEventType.STOP_START in kinds
        assert MovementEventType.STOP_END in kinds


# The same tests on the scalar reference kernel.
class TestEndToEndCompressionOnOracle(TestEndToEndCompression):
    kernel = MobilityTracker

"""Tests for the traveled-distance feature (Section 3.1 extension)."""

import pytest

from repro.ais.stream import PositionalTuple
from repro.geo.units import knots_to_mps
from tests.tracking.helpers import TraceBuilder
from tests.tracking.oracle import MobilityTracker


class TestTraveledDistance:
    def test_unknown_vessel_is_zero(self, tracker_class):
        assert tracker_class().traveled_distance_meters(42) == 0.0

    def test_single_report_is_zero(self, tracker_class):
        tracker = tracker_class()
        tracker.process(PositionalTuple(1, 24.0, 38.0, 0))
        assert tracker.traveled_distance_meters(1) == 0.0

    def test_straight_cruise_matches_speed_times_time(self, tracker_class):
        tracker = tracker_class()
        # 10 knots for 30 minutes = ~9.26 km.
        tracker.process_batch(TraceBuilder().cruise(90.0, 10.0, 30).build())
        expected = knots_to_mps(10.0) * 30 * 60
        assert tracker.traveled_distance_meters(1) == pytest.approx(
            expected, rel=0.01
        )

    def test_outliers_do_not_inflate_distance(self, tracker_class):
        clean = tracker_class()
        clean.process_batch(TraceBuilder().cruise(90.0, 10.0, 20).build())
        noisy = tracker_class()
        noisy.process_batch(
            TraceBuilder()
            .cruise(90.0, 10.0, 10)
            .jump(0.0, 3000.0, interval=30)
            .cruise(90.0, 10.0, 10)
            .build()
        )
        # The 3 km jump is discarded; distances agree within a few percent.
        assert noisy.traveled_distance_meters(1) == pytest.approx(
            clean.traveled_distance_meters(1), rel=0.05
        )

    def test_gap_contributes_straight_line_lower_bound(self, tracker_class):
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .cruise(90.0, 10.0, 5)
            .silence(1200)
            .cruise(90.0, 10.0, 5)
            .build()
        )
        tracker.process_batch(trace)
        # The silence kept the vessel in place here, so total distance is
        # just the two cruise segments.
        expected = knots_to_mps(10.0) * 10 * 60
        assert tracker.traveled_distance_meters(1) == pytest.approx(
            expected, rel=0.02
        )

    def test_per_vessel_isolation(self, tracker_class):
        tracker = tracker_class()
        tracker.process_batch(TraceBuilder(mmsi=1).cruise(90.0, 10.0, 10).build())
        tracker.process_batch(TraceBuilder(mmsi=2).cruise(90.0, 20.0, 10).build())
        assert tracker.traveled_distance_meters(2) == pytest.approx(
            2 * tracker.traveled_distance_meters(1), rel=0.01
        )


# The same tests on the scalar reference kernel.
class TestTraveledDistanceOnOracle(TestTraveledDistance):
    kernel = MobilityTracker

"""Tests for instantaneous trajectory events (Section 3.1, Figure 2)."""

import pytest

from repro.ais.stream import PositionalTuple
from repro.tracking import MovementEventType, TrackingParameters
from tests.tracking.helpers import TraceBuilder
from tests.tracking.oracle import MobilityTracker


def events_of(events, kind):
    return [e for e in events if e.event_type is kind]


class TestBasics:
    def test_first_position_produces_no_events(self, tracker_class):
        tracker = tracker_class()
        assert tracker.process_batch([PositionalTuple(1, 24.0, 38.0, 0)]) == []
        assert tracker.vessel_count() == 1

    def test_duplicate_timestamp_ignored(self, tracker_class):
        tracker = tracker_class()
        tracker.process_batch([PositionalTuple(1, 24.0, 38.0, 0)])
        tracker.process_batch([PositionalTuple(1, 24.0, 38.0, 60)])
        assert tracker.process_batch([PositionalTuple(1, 24.1, 38.0, 60)]) == []
        assert tracker.statistics.positions_out_of_sequence == 1

    def test_out_of_order_timestamp_ignored(self, tracker_class):
        tracker = tracker_class()
        tracker.process_batch([PositionalTuple(1, 24.0, 38.0, 100)])
        assert tracker.process_batch([PositionalTuple(1, 24.1, 38.0, 50)]) == []
        assert tracker.statistics.positions_out_of_sequence == 1

    def test_vessels_tracked_independently(self, tracker_class):
        tracker = tracker_class()
        tracker.process_batch([PositionalTuple(1, 24.0, 38.0, 0)])
        tracker.process_batch([PositionalTuple(2, 25.0, 38.0, 0)])
        assert tracker.vessel_count() == 2
        # Vessel 2's first transition does not see vessel 1's state.
        events = tracker.process_batch([PositionalTuple(2, 25.0, 38.001, 60)])
        assert all(e.mmsi == 2 for e in events)

    def test_velocity_vector_maintained(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 10.0, 3).build()
        tracker.process_batch(trace)
        velocity = tracker.current_velocity(1)
        assert velocity is not None
        assert velocity.speed_knots == pytest.approx(10.0, rel=0.01)
        assert velocity.heading_degrees == pytest.approx(90.0, abs=1.0)


class TestPause:
    def test_halted_vessel_emits_pauses(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().halt(5, jitter_meters=3.0).build()
        events = tracker.process_batch(trace)
        assert len(events_of(events, MovementEventType.PAUSE)) == 5

    def test_cruising_vessel_emits_no_pauses(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 12.0, 10).build()
        events = tracker.process_batch(trace)
        assert events_of(events, MovementEventType.PAUSE) == []

    def test_pause_threshold_is_min_speed(self, tracker_class):
        # Exactly the Table 3 default: v_min = 1 knot.
        params = TrackingParameters()
        tracker = tracker_class(params)
        slow = TraceBuilder().cruise(90.0, 0.9, 3).build()
        events = tracker.process_batch(slow)
        assert len(events_of(events, MovementEventType.PAUSE)) == 3

        tracker = tracker_class(params)
        faster = TraceBuilder().cruise(90.0, 1.5, 3).build()
        events = tracker.process_batch(faster)
        assert events_of(events, MovementEventType.PAUSE) == []


class TestSpeedChange:
    def test_deceleration_detected(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 15.0, 5).cruise(90.0, 8.0, 2).build()
        events = tracker.process_batch(trace)
        changes = events_of(events, MovementEventType.SPEED_CHANGE)
        assert len(changes) >= 1
        # |8 - 15| / 8 = 87% > alpha = 25%.
        assert changes[0].speed_knots == pytest.approx(8.0, rel=0.05)

    def test_acceleration_detected(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 8.0, 5).cruise(90.0, 15.0, 2).build()
        events = tracker.process_batch(trace)
        assert len(events_of(events, MovementEventType.SPEED_CHANGE)) >= 1

    def test_small_variation_not_flagged(self, tracker_class):
        tracker = tracker_class()
        # 10 -> 11 knots: |11-10|/11 = 9% < 25%.
        trace = TraceBuilder().cruise(90.0, 10.0, 5).cruise(90.0, 11.0, 3).build()
        events = tracker.process_batch(trace)
        assert events_of(events, MovementEventType.SPEED_CHANGE) == []

    def test_alpha_parameter_respected(self, tracker_class):
        # With alpha = 5%, the same 10 -> 11 knots change is flagged.
        params = TrackingParameters(speed_change_percent=5.0)
        tracker = tracker_class(params)
        trace = TraceBuilder().cruise(90.0, 10.0, 5).cruise(90.0, 11.0, 3).build()
        events = tracker.process_batch(trace)
        assert len(events_of(events, MovementEventType.SPEED_CHANGE)) >= 1

    def test_anchored_jitter_not_a_speed_change(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().halt(8, jitter_meters=4.0).build()
        events = tracker.process_batch(trace)
        assert events_of(events, MovementEventType.SPEED_CHANGE) == []


class TestTurn:
    def test_sharp_turn_detected(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 12.0, 5).cruise(0.0, 12.0, 3).build()
        events = tracker.process_batch(trace)
        turns = events_of(events, MovementEventType.TURN)
        assert len(turns) == 1
        assert turns[0].heading_degrees == pytest.approx(0.0, abs=2.0)

    def test_shallow_turn_below_threshold_ignored(self, tracker_class):
        tracker = tracker_class(TrackingParameters(turn_threshold_degrees=15.0))
        trace = TraceBuilder().cruise(90.0, 12.0, 5).cruise(80.0, 12.0, 3).build()
        events = tracker.process_batch(trace)
        assert events_of(events, MovementEventType.TURN) == []

    def test_threshold_sweep_controls_sensitivity(self, tracker_class):
        # The same 10-degree course change: flagged at 5 degrees, not at 15.
        trace = TraceBuilder().cruise(90.0, 12.0, 5).cruise(100.0, 12.0, 3).build()
        strict = tracker_class(TrackingParameters(turn_threshold_degrees=5.0))
        relaxed = tracker_class(TrackingParameters(turn_threshold_degrees=15.0))
        assert len(events_of(strict.process_batch(trace), MovementEventType.TURN)) == 1
        assert events_of(relaxed.process_batch(trace), MovementEventType.TURN) == []

    def test_no_turn_while_halted(self, tracker_class):
        # Heading jitter at anchor must not produce turns.
        tracker = tracker_class()
        trace = TraceBuilder().halt(10, jitter_meters=5.0).build()
        events = tracker.process_batch(trace)
        assert events_of(events, MovementEventType.TURN) == []

    def test_turn_through_north_wrap(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(350.0, 12.0, 5).cruise(10.0, 12.0, 3).build()
        events = tracker.process_batch(trace)
        # 20-degree wrap-around change > 15-degree threshold.
        assert len(events_of(events, MovementEventType.TURN)) == 1


class TestOffCourse:
    def test_outlier_discarded(self, tracker_class):
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .cruise(90.0, 10.0, 8)
            .jump(0.0, 2500.0, interval=30)
            .cruise(90.0, 10.0, 4)
            .build()
        )
        events = tracker.process_batch(trace)
        outliers = events_of(events, MovementEventType.OFF_COURSE)
        assert len(outliers) == 1
        assert tracker.statistics.positions_discarded_as_outliers == 1
        # The outlier does not derail the course: no spurious turns.
        assert events_of(events, MovementEventType.TURN) == []

    def test_gps_jump_at_anchor_discarded(self, tracker_class):
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .halt(8, jitter_meters=3.0)
            .jump(45.0, 2000.0, interval=30)
            .halt(4, jitter_meters=3.0)
            .build()
        )
        events = tracker.process_batch(trace)
        assert len(events_of(events, MovementEventType.OFF_COURSE)) == 1

    def test_persistent_deviation_eventually_accepted(self, tracker_class):
        # A genuine course change is not dropped forever: after
        # max_consecutive_outliers discards the tracker re-accepts input.
        params = TrackingParameters(max_consecutive_outliers=2)
        tracker = tracker_class(params)
        trace = (
            TraceBuilder()
            .cruise(90.0, 5.0, 8, interval=60)
            .cruise(0.0, 40.0, 6, interval=60)
            .build()
        )
        events = tracker.process_batch(trace)
        outliers = events_of(events, MovementEventType.OFF_COURSE)
        assert len(outliers) <= params.max_consecutive_outliers
        velocity = tracker.current_velocity(1)
        # The tracker eventually follows the new fast northbound course.
        assert velocity.speed_knots == pytest.approx(40.0, rel=0.1)

    def test_statistics_count_events(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 12.0, 5).cruise(0.0, 12.0, 2).build()
        tracker.process_batch(trace)
        assert tracker.statistics.positions_seen == len(trace)
        assert (
            tracker.statistics.events_by_type.get(MovementEventType.TURN, 0) == 1
        )


# The same tests on the scalar reference kernel.
class TestBasicsOnOracle(TestBasics):
    kernel = MobilityTracker


class TestPauseOnOracle(TestPause):
    kernel = MobilityTracker


class TestSpeedChangeOnOracle(TestSpeedChange):
    kernel = MobilityTracker


class TestTurnOnOracle(TestTurn):
    kernel = MobilityTracker


class TestOffCourseOnOracle(TestOffCourse):
    kernel = MobilityTracker

"""Tests for long-lasting trajectory events (Section 3.1, Figure 3)."""

from repro.geo.haversine import haversine_meters
from repro.tracking import MovementEventType, TrackingParameters
from tests.tracking.helpers import TraceBuilder
from tests.tracking.oracle import MobilityTracker


def events_of(events, kind):
    return [e for e in events if e.event_type is kind]


class TestGap:
    def test_gap_reported_at_both_ends(self, tracker_class):
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .cruise(90.0, 10.0, 5)
            .silence(1200)  # 20 min > Delta-T = 10 min
            .cruise(90.0, 10.0, 3)
            .build()
        )
        events = tracker.process_batch(trace)
        starts = events_of(events, MovementEventType.GAP_START)
        ends = events_of(events, MovementEventType.GAP_END)
        assert len(starts) == 1
        assert len(ends) == 1
        # The gap-start critical point is the position where the gap began.
        assert starts[0].timestamp < ends[0].timestamp
        assert starts[0].duration_seconds >= 1200

    def test_short_silence_is_not_a_gap(self, tracker_class):
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .cruise(90.0, 10.0, 5)
            .silence(300)  # 5 min < Delta-T
            .cruise(90.0, 10.0, 3)
            .build()
        )
        events = tracker.process_batch(trace)
        assert events_of(events, MovementEventType.GAP_START) == []

    def test_gap_threshold_parameter(self, tracker_class):
        params = TrackingParameters(gap_period_seconds=120)
        tracker = tracker_class(params)
        trace = TraceBuilder().cruise(90.0, 10.0, 3).silence(180).cruise(90.0, 10.0, 2).build()
        events = tracker.process_batch(trace)
        assert len(events_of(events, MovementEventType.GAP_START)) == 1

    def test_gap_closes_open_stop(self, tracker_class):
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .cruise(90.0, 10.0, 3)
            .halt(12, jitter_meters=3.0)
            .silence(1500)
            .cruise(90.0, 10.0, 2)
            .build()
        )
        events = tracker.process_batch(trace)
        stop_ends = events_of(events, MovementEventType.STOP_END)
        gap_starts = events_of(events, MovementEventType.GAP_START)
        assert len(stop_ends) == 1
        assert len(gap_starts) == 1
        # The stop ended no later than the gap began.
        assert stop_ends[0].timestamp <= gap_starts[0].timestamp


class TestSmoothTurn:
    def test_cumulative_drift_detected(self, tracker_class):
        # Eight 5-degree changes: each below the 15-degree threshold, the
        # accumulation far above it.
        tracker = tracker_class()
        builder = TraceBuilder()
        heading = 90.0
        builder.cruise(heading, 12.0, 3)
        for _ in range(8):
            heading -= 5.0
            builder.cruise(heading, 12.0, 1)
        events = tracker.process_batch(builder.build())
        assert events_of(events, MovementEventType.TURN) == []
        assert len(events_of(events, MovementEventType.SMOOTH_TURN)) >= 1

    def test_alternating_jitter_cancels(self, tracker_class):
        # +-6 degrees of alternating drift never accumulates to a turn.
        tracker = tracker_class()
        builder = TraceBuilder()
        builder.cruise(90.0, 12.0, 3)
        for index in range(10):
            builder.cruise(90.0 + (6.0 if index % 2 == 0 else -6.0), 12.0, 1)
        events = tracker.process_batch(builder.build())
        assert events_of(events, MovementEventType.SMOOTH_TURN) == []

    def test_sharp_turn_resets_accumulator(self, tracker_class):
        # After an instantaneous turn, accumulation restarts from zero.
        tracker = tracker_class()
        builder = TraceBuilder()
        builder.cruise(90.0, 12.0, 4)
        builder.cruise(140.0, 12.0, 1)  # sharp: 50 degrees
        builder.cruise(134.0, 12.0, 1)  # small drift after the turn
        builder.cruise(128.0, 12.0, 1)
        events = tracker.process_batch(builder.build())
        assert len(events_of(events, MovementEventType.TURN)) == 1
        assert events_of(events, MovementEventType.SMOOTH_TURN) == []


class TestLongTermStop:
    def test_stop_start_and_end_emitted(self, tracker_class):
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .cruise(90.0, 10.0, 3)
            .halt(15, jitter_meters=4.0)
            .cruise(90.0, 10.0, 5)
            .build()
        )
        events = tracker.process_batch(trace)
        starts = events_of(events, MovementEventType.STOP_START)
        ends = events_of(events, MovementEventType.STOP_END)
        assert len(starts) == 1
        assert len(ends) == 1
        assert ends[0].duration_seconds > 0
        assert starts[0].timestamp < ends[0].timestamp

    def test_stop_centroid_near_anchor_point(self, tracker_class):
        tracker = tracker_class()
        builder = TraceBuilder().cruise(90.0, 10.0, 3)
        anchor = (builder.lon, builder.lat)
        trace = builder.halt(15, jitter_meters=5.0).cruise(90.0, 10.0, 3).build()
        events = tracker.process_batch(trace)
        end = events_of(events, MovementEventType.STOP_END)[0]
        assert haversine_meters(anchor[0], anchor[1], end.lon, end.lat) < 50.0

    def test_short_halt_is_not_a_stop(self, tracker_class):
        # Fewer than m = 10 consecutive pauses: no long-term stop.
        tracker = tracker_class()
        trace = (
            TraceBuilder()
            .cruise(90.0, 10.0, 3)
            .halt(5, jitter_meters=3.0)
            .cruise(90.0, 10.0, 5)
            .build()
        )
        events = tracker.process_batch(trace)
        assert events_of(events, MovementEventType.STOP_START) == []

    def test_open_stop_closed_by_finalize(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 10.0, 3).halt(15, jitter_meters=3.0).build()
        events = tracker.process_batch(trace)
        assert len(events_of(events, MovementEventType.STOP_START)) == 1
        assert events_of(events, MovementEventType.STOP_END) == []
        final = tracker.finalize()
        assert len(events_of(final, MovementEventType.STOP_END)) == 1

    def test_m_parameter_controls_detection(self, tracker_class):
        params = TrackingParameters(inspected_positions=4)
        tracker = tracker_class(params)
        trace = TraceBuilder().cruise(90.0, 10.0, 3).halt(5, jitter_meters=3.0).build()
        events = tracker.process_batch(trace) + tracker.finalize()
        assert len(events_of(events, MovementEventType.STOP_START)) == 1

    def test_drift_beyond_radius_splits_runs(self, tracker_class):
        # Pauses scattered wider than r = 200 m do not form one stop.
        params = TrackingParameters(stop_radius_meters=50.0)
        tracker = tracker_class(params)
        trace = (
            TraceBuilder()
            .cruise(90.0, 10.0, 3)
            .halt(6, jitter_meters=3.0)
            .cruise(90.0, 3.0, 1, interval=120)  # drift 180 m away, slowly
            .halt(6, jitter_meters=3.0)
            .build()
        )
        events = tracker.process_batch(trace) + tracker.finalize()
        assert events_of(events, MovementEventType.STOP_START) == []


class TestSlowMotion:
    def test_sustained_low_speed_along_path(self, tracker_class):
        tracker = tracker_class()
        # 3.5 knots for 25 reports along a path: slow motion, not a stop.
        trace = TraceBuilder().cruise(90.0, 12.0, 3).cruise(90.0, 3.5, 25, interval=120).build()
        events = tracker.process_batch(trace)
        slow = events_of(events, MovementEventType.SLOW_MOTION)
        assert len(slow) >= 1
        assert events_of(events, MovementEventType.STOP_START) == []
        # The median point lies on the path, between start and end.
        assert trace[0].lon < slow[0].lon < trace[-1].lon

    def test_confined_low_speed_is_a_stop_not_slow_motion(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 12.0, 3).halt(15, jitter_meters=3.0).build()
        events = tracker.process_batch(trace) + tracker.finalize()
        assert events_of(events, MovementEventType.SLOW_MOTION) == []
        assert len(events_of(events, MovementEventType.STOP_START)) == 1

    def test_normal_cruise_is_not_slow(self, tracker_class):
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 12.0, 30).build()
        events = tracker.process_batch(trace)
        assert events_of(events, MovementEventType.SLOW_MOTION) == []

    def test_slow_speed_threshold_parameter(self, tracker_class):
        # 6 knots: slow only when the threshold is raised above it.
        trace = TraceBuilder().cruise(90.0, 6.0, 15, interval=120).build()
        default = tracker_class()
        assert events_of(
            default.process_batch(trace), MovementEventType.SLOW_MOTION
        ) == []
        raised = tracker_class(TrackingParameters(slow_speed_knots=8.0))
        assert (
            len(
                events_of(
                    raised.process_batch(trace), MovementEventType.SLOW_MOTION
                )
            )
            >= 1
        )

    def test_repeated_slow_motion_over_long_episode(self, tracker_class):
        # A multi-hour trawl produces one slowMotion ME per m-report run.
        tracker = tracker_class()
        trace = TraceBuilder().cruise(90.0, 12.0, 3).cruise(90.0, 3.0, 40, interval=120).build()
        events = tracker.process_batch(trace)
        assert len(events_of(events, MovementEventType.SLOW_MOTION)) >= 3


class TestComplexityContract:
    def test_linear_scaling_in_positions(self, tracker_class):
        # O(1)/O(m) per tuple: 4x the input should stay well under 8x time.
        import time

        def run(repeats):
            trace = TraceBuilder().cruise(90.0, 10.0, repeats).build()
            # Best of three: the columnar kernel takes ~3 ms on the small
            # trace, where one cold run can cost several times that.
            seconds = []
            for _ in range(3):
                tracker = tracker_class()
                started = time.perf_counter()
                tracker.process_batch(trace)
                seconds.append(time.perf_counter() - started)
            return min(seconds)

        small = run(2000) + 1e-9
        large = run(8000)
        assert large / small < 8.0


# The same tests on the scalar reference kernel.
class TestGapOnOracle(TestGap):
    kernel = MobilityTracker


class TestSmoothTurnOnOracle(TestSmoothTurn):
    kernel = MobilityTracker


class TestLongTermStopOnOracle(TestLongTermStop):
    kernel = MobilityTracker


class TestSlowMotionOnOracle(TestSlowMotion):
    kernel = MobilityTracker


class TestComplexityContractOnOracle(TestComplexityContract):
    kernel = MobilityTracker

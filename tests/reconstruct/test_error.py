"""Tests for the trajectory approximation error (RMSE)."""

import pytest
from hypothesis import given, strategies as st

from repro.reconstruct.error import ApproximationError, fleet_rmse, trajectory_rmse
from repro.tracking import ColumnarTracker, Compressor, TrackingParameters, WindowSpec
from repro.tracking.types import CriticalPoint, MovementEventType
from tests.tracking.helpers import TraceBuilder


def as_critical(position, kind=MovementEventType.TURN):
    return CriticalPoint(
        mmsi=position.mmsi,
        lon=position.lon,
        lat=position.lat,
        timestamp=position.timestamp,
        annotations=frozenset({kind}),
    )


class TestTrajectoryRmse:
    def test_zero_when_nothing_dropped(self):
        original = TraceBuilder().cruise(90.0, 10.0, 10).build()
        critical = [as_critical(p) for p in original]
        assert trajectory_rmse(original, critical) == pytest.approx(0.0, abs=1e-6)

    def test_zero_on_straight_line_with_endpoints_only(self):
        # Linear interpolation between endpoints reproduces a constant-
        # velocity straight course exactly.
        original = TraceBuilder().cruise(90.0, 10.0, 20).build()
        critical = [as_critical(original[0]), as_critical(original[-1])]
        assert trajectory_rmse(original, critical) < 2.0

    def test_error_grows_when_corner_dropped(self):
        # Keeping only the endpoints of an L-shaped course cuts the corner.
        original = (
            TraceBuilder().cruise(90.0, 10.0, 10).cruise(0.0, 10.0, 10).build()
        )
        endpoints_only = [as_critical(original[0]), as_critical(original[-1])]
        with_corner = endpoints_only[:1] + [as_critical(original[10])] + endpoints_only[1:]
        assert trajectory_rmse(original, with_corner) < 10.0
        assert trajectory_rmse(original, endpoints_only) > 500.0

    def test_empty_inputs_rejected(self):
        original = TraceBuilder().cruise(90.0, 10.0, 3).build()
        with pytest.raises(ValueError, match="original"):
            trajectory_rmse([], [as_critical(original[0])])
        with pytest.raises(ValueError, match="critical"):
            trajectory_rmse(original, [])

    def test_duplicate_critical_timestamps_tolerated(self):
        original = TraceBuilder().cruise(90.0, 10.0, 5).build()
        critical = [
            as_critical(original[0]),
            as_critical(original[2]),
            as_critical(original[2], kind=MovementEventType.SPEED_CHANGE),
            as_critical(original[-1]),
        ]
        value = trajectory_rmse(original, critical)
        assert value >= 0.0

    @given(keep_every=st.integers(min_value=2, max_value=8))
    def test_rmse_non_negative(self, keep_every):
        original = (
            TraceBuilder().cruise(90.0, 12.0, 12).cruise(45.0, 12.0, 12).build()
        )
        critical = [as_critical(p) for p in original[::keep_every]]
        assert trajectory_rmse(original, critical) >= 0.0

    def test_monotone_in_compression_aggressiveness(self):
        # Wider turn thresholds keep fewer points and lose more accuracy —
        # the Figure 8 trend.
        builder = TraceBuilder().cruise(90.0, 12.0, 10)
        for step in range(12):
            builder.cruise(90.0 - 7.0 * (step + 1), 12.0, 2)
        original = builder.build()

        def rmse_for(threshold):
            tracker = ColumnarTracker(
                TrackingParameters(turn_threshold_degrees=threshold)
            )
            events = tracker.process_batch(original) + tracker.finalize()
            compressor = Compressor(WindowSpec.of_hours(24, 1))
            fresh, _ = compressor.slide(events, original[-1].timestamp)
            anchors = [as_critical(original[0])] + fresh + [as_critical(original[-1])]
            return trajectory_rmse(original, anchors)

        assert rmse_for(5.0) <= rmse_for(20.0) + 1.0


class TestFleetRmse:
    def test_aggregates_per_vessel(self):
        trace_a = TraceBuilder(mmsi=1).cruise(90.0, 10.0, 10).build()
        trace_b = TraceBuilder(mmsi=2).cruise(0.0, 10.0, 10).build()
        originals = {1: trace_a, 2: trace_b}
        synopses = {
            1: [as_critical(trace_a[0]), as_critical(trace_a[-1])],
            2: [as_critical(trace_b[0]), as_critical(trace_b[-1])],
        }
        error = fleet_rmse(originals, synopses)
        assert set(error.per_vessel_rmse) == {1, 2}
        assert error.average <= error.maximum

    def test_vessels_without_synopsis_skipped(self):
        trace = TraceBuilder(mmsi=1).cruise(90.0, 10.0, 5).build()
        error = fleet_rmse({1: trace, 2: trace}, {1: [as_critical(trace[0])]})
        assert set(error.per_vessel_rmse) == {1}

    def test_empty_fleet(self):
        error = ApproximationError({})
        assert error.average == 0.0
        assert error.maximum == 0.0

"""The scalar Mobility Tracker: the per-tuple reference of Section 3.1.

:class:`MobilityTracker` is the reference the shipped
:class:`~repro.tracking.ColumnarTracker` is held byte-identical to
(``test_columnar_parity.py``); the tracker unit tests run on both, and
``benchmarks/drills.py tracking-sweep`` times it as its ``scalar`` column.

It reads like the paper.  The tracker maintains, per vessel, the
instantaneous velocity vector derived from its two most recent positions
plus a bounded history of the last *m* accepted positions.  Each incoming
tuple is examined once:

* **instantaneous** events — *pause* (speed below v_min), *speed change*
  (relative deviation above alpha %), *turn* (heading change above
  Delta-theta), and *off-course* outliers (abrupt deviation from the mean
  velocity of the previous m positions, discarded as noise) — cost O(1);
* **long-lasting** events — *gap in reporting* (silence above Delta-T),
  *smooth turn* (cumulative heading drift above Delta-theta), *long-term
  stop* (m consecutive pause/turn events inside radius r, reported as their
  centroid with total duration), and *slow motion* (m consecutive low-speed
  reports along a path, reported as their median) — cost O(m).

Everything runs in main memory without index support.
"""

from collections import deque
from collections.abc import Iterable

from repro import obs
from repro.ais.stream import PositionalTuple
from repro.geo.haversine import (
    haversine_meters,
    heading_difference_degrees,
    initial_bearing_degrees,
    signed_heading_change_degrees,
)
from repro.tracking.columnar import (
    _EPSILON_SPEED,
    _centroid,
    _circular_mean_degrees,
)
from repro.tracking.config import TrackingParameters
from repro.tracking.types import (
    MovementEvent,
    MovementEventType,
    TrackerStatistics,
    VelocityVector,
)


class _VesselState:
    """Mutable per-vessel bookkeeping kept by the tracker."""

    __slots__ = (
        "last",
        "velocity",
        "recent_speeds",
        "recent_headings",
        "cumulative_turn",
        "stop_run",
        "stop_active",
        "slow_run",
        "consecutive_outliers",
        "traveled_meters",
    )

    def __init__(self, history_length: int):
        self.last: PositionalTuple | None = None
        self.velocity: VelocityVector | None = None
        # Speeds/headings of the last m accepted transitions, for the
        # off-course mean-velocity test.
        self.recent_speeds: deque[float] = deque(maxlen=history_length)
        self.recent_headings: deque[float] = deque(maxlen=history_length)
        # Signed cumulative heading change for the smooth-turn detector.
        self.cumulative_turn = 0.0
        # Run of consecutive pause/turn positions within the stop radius.
        self.stop_run: list[PositionalTuple] = []
        self.stop_active = False
        # Run of consecutive low-speed positions for slow-motion detection.
        self.slow_run: list[tuple[PositionalTuple, float]] = []
        self.consecutive_outliers = 0
        # Cumulative traveled distance over accepted transitions (the
        # "traveled distance from a given origin" feature of Section 3.1).
        self.traveled_meters = 0.0


class MobilityTracker:
    """Detect trajectory events over a cleaned positional stream.

    Parameters
    ----------
    parameters:
        Tracking thresholds; defaults reproduce Table 3 of the paper.

    Usage::

        tracker = MobilityTracker()
        for position in stream:
            events = tracker.process(position)

    Call :meth:`finalize` at end-of-stream to close any open long-term
    stops.  The tracker is deliberately stateful and single-threaded, like
    the paper's main-memory C++ module; parallelism is obtained by
    partitioning the fleet across tracker instances.
    """

    def __init__(self, parameters: TrackingParameters | None = None):
        self.parameters = parameters or TrackingParameters()
        self.statistics = TrackerStatistics()
        self._vessels: dict[int, _VesselState] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def process(self, position: PositionalTuple) -> list[MovementEvent]:
        """Examine one positional tuple; return the events it triggered."""
        self.statistics.positions_seen += 1
        state = self._vessels.get(position.mmsi)
        if state is None:
            state = _VesselState(self.parameters.inspected_positions)
            self._vessels[position.mmsi] = state

        if state.last is None:
            state.last = position
            return []

        dt = position.timestamp - state.last.timestamp
        if dt <= 0:
            # The positional stream is append-only per vessel; a stale or
            # duplicated timestamp carries no new motion information.
            self.statistics.positions_out_of_sequence += 1
            return []

        events: list[MovementEvent] = []
        if dt > self.parameters.gap_period_seconds:
            events.extend(self._handle_gap(state, position))
            state.last = position
            return self._count(events)

        distance = haversine_meters(
            state.last.lon, state.last.lat, position.lon, position.lat
        )
        speed = distance / dt
        if distance > 1.0:
            heading = initial_bearing_degrees(
                state.last.lon, state.last.lat, position.lon, position.lat
            )
        elif state.velocity is not None:
            # Sub-meter displacement: bearing is GPS noise, keep the course.
            heading = state.velocity.heading_degrees
        else:
            heading = 0.0
        velocity_now = VelocityVector(speed, heading)

        if self._is_off_course(state, velocity_now):
            state.consecutive_outliers += 1
            if state.consecutive_outliers <= self.parameters.max_consecutive_outliers:
                self.statistics.positions_discarded_as_outliers += 1
                events.append(
                    self._event(MovementEventType.OFF_COURSE, position, velocity_now)
                )
                # The point is dropped: per-vessel state keeps the previous
                # position so the distorted segment never enters the synopsis.
                return self._count(events)
            # Too many successive "outliers": the course genuinely changed.
            state.consecutive_outliers = 0
        else:
            state.consecutive_outliers = 0

        events.extend(self._instantaneous_events(state, position, velocity_now))
        events.extend(self._smooth_turn(state, position, velocity_now, events))
        events.extend(self._stop_detector(state, position, velocity_now, events))
        events.extend(self._slow_motion_detector(state, position, velocity_now))

        state.recent_speeds.append(speed)
        state.recent_headings.append(heading)
        state.velocity = velocity_now
        state.last = position
        state.traveled_meters += distance
        return self._count(events)

    def process_batch(
        self, positions: Iterable[PositionalTuple]
    ) -> list[MovementEvent]:
        """Process a batch of tuples (one window slide worth of arrivals)."""
        with obs.span("tracking.process_batch"):
            seen_before = self.statistics.positions_seen
            events: list[MovementEvent] = []
            for position in positions:
                events.extend(self.process(position))
            obs.count(
                "tracking.positions", self.statistics.positions_seen - seen_before
            )
            obs.count("tracking.movement_events", len(events))
            return events

    def finalize(self) -> list[MovementEvent]:
        """Close open long-lasting events at end-of-stream."""
        events: list[MovementEvent] = []
        for state in self._vessels.values():
            events.extend(self._finalize_stop_run(state))
            state.slow_run.clear()
        return self._count(events)

    def vessel_count(self) -> int:
        """Number of vessels with tracked state."""
        return len(self._vessels)

    def current_velocity(self, mmsi: int) -> VelocityVector | None:
        """Latest velocity vector of a vessel, if any."""
        state = self._vessels.get(mmsi)
        return state.velocity if state else None

    def traveled_distance_meters(self, mmsi: int) -> float:
        """Cumulative distance sailed since the vessel was first seen.

        Sums the Haversine lengths of all accepted transitions (discarded
        off-course outliers contribute nothing).  Section 3.1 lists this
        "traveled distance from a given origin" as a planned tracker
        feature; it supports aggregates like per-trip distance at query
        time without touching the archive.
        """
        state = self._vessels.get(mmsi)
        return state.traveled_meters if state else 0.0

    # ------------------------------------------------------------------
    # detectors
    # ------------------------------------------------------------------

    def _handle_gap(
        self, state: _VesselState, position: PositionalTuple
    ) -> list[MovementEvent]:
        """Communication gap: close runs, report gap start and end points."""
        assert state.last is not None
        events = self._finalize_stop_run(state)
        state.slow_run.clear()
        state.cumulative_turn = 0.0
        velocity = state.velocity or VelocityVector(0.0, 0.0)
        events.append(
            MovementEvent(
                MovementEventType.GAP_START,
                position.mmsi,
                state.last.lon,
                state.last.lat,
                state.last.timestamp,
                speed_mps=velocity.speed_mps,
                heading_degrees=velocity.heading_degrees,
                duration_seconds=position.timestamp - state.last.timestamp,
            )
        )
        events.append(
            MovementEvent(
                MovementEventType.GAP_END,
                position.mmsi,
                position.lon,
                position.lat,
                position.timestamp,
            )
        )
        # Stale motion features must not leak across the silence.
        state.velocity = None
        state.recent_speeds.clear()
        state.recent_headings.clear()
        # The course during the silence is unknown; the straight-line
        # distance is the lower bound on what was sailed.
        state.traveled_meters += haversine_meters(
            state.last.lon, state.last.lat, position.lon, position.lat
        )
        return events

    def _is_off_course(self, state: _VesselState, now: VelocityVector) -> bool:
        """Abrupt deviation from the mean velocity of the last m positions."""
        params = self.parameters
        if len(state.recent_speeds) < 3:
            return False
        mean_speed = sum(state.recent_speeds) / len(state.recent_speeds)
        speed_jump = now.speed_mps > params.outlier_speed_factor * max(
            mean_speed, params.min_speed_mps
        )
        if not speed_jump or now.speed_mps < params.outlier_min_speed_mps:
            return False
        if mean_speed < params.min_speed_mps:
            # Halted vessel: any such jump is a positioning glitch; heading
            # against a jittering anchor course is meaningless.
            return True
        mean_heading = _circular_mean_degrees(state.recent_headings)
        deviation = heading_difference_degrees(now.heading_degrees, mean_heading)
        return deviation > params.outlier_heading_degrees

    def _instantaneous_events(
        self,
        state: _VesselState,
        position: PositionalTuple,
        now: VelocityVector,
    ) -> list[MovementEvent]:
        params = self.parameters
        events: list[MovementEvent] = []

        if now.speed_mps <= params.min_speed_mps:
            events.append(self._event(MovementEventType.PAUSE, position, now))

        previous = state.velocity
        if previous is not None:
            denominator = max(now.speed_mps, _EPSILON_SPEED)
            ratio = abs(now.speed_mps - previous.speed_mps) / denominator
            both_halted = (
                now.speed_mps <= params.min_speed_mps
                and previous.speed_mps <= params.min_speed_mps
            )
            if ratio > params.speed_change_percent / 100.0 and not both_halted:
                events.append(
                    self._event(MovementEventType.SPEED_CHANGE, position, now)
                )

            both_moving = (
                now.speed_mps > params.min_speed_mps
                and previous.speed_mps > params.min_speed_mps
            )
            if both_moving:
                change = heading_difference_degrees(
                    now.heading_degrees, previous.heading_degrees
                )
                if change > params.turn_threshold_degrees:
                    events.append(self._event(MovementEventType.TURN, position, now))
        return events

    def _smooth_turn(
        self,
        state: _VesselState,
        position: PositionalTuple,
        now: VelocityVector,
        detected: list[MovementEvent],
    ) -> list[MovementEvent]:
        """Accumulate small signed heading changes into smooth turns."""
        params = self.parameters
        previous = state.velocity
        moving = (
            previous is not None
            and now.speed_mps > params.min_speed_mps
            and previous.speed_mps > params.min_speed_mps
        )
        if not moving:
            state.cumulative_turn = 0.0
            return []
        if any(e.event_type is MovementEventType.TURN for e in detected):
            # A sharp turn was already reported at this point; restart the
            # accumulation from the new course.
            state.cumulative_turn = 0.0
            return []
        assert previous is not None
        change = signed_heading_change_degrees(
            previous.heading_degrees, now.heading_degrees
        )
        # A sign flip means the drift reversed; restart from this change so
        # that alternating jitter does not accumulate.
        if state.cumulative_turn * change < 0:
            state.cumulative_turn = change
        else:
            state.cumulative_turn += change
        if abs(state.cumulative_turn) > params.turn_threshold_degrees:
            state.cumulative_turn = 0.0
            return [self._event(MovementEventType.SMOOTH_TURN, position, now)]
        return []

    def _stop_detector(
        self,
        state: _VesselState,
        position: PositionalTuple,
        now: VelocityVector,
        detected: list[MovementEvent],
    ) -> list[MovementEvent]:
        """Aggregate consecutive pause/turn points into long-term stops."""
        params = self.parameters
        qualifies = any(
            e.event_type in (MovementEventType.PAUSE, MovementEventType.TURN)
            for e in detected
        )
        events: list[MovementEvent] = []
        if qualifies and state.stop_run:
            anchor = state.stop_run[0]
            within = (
                haversine_meters(anchor.lon, anchor.lat, position.lon, position.lat)
                <= params.stop_radius_meters
            )
        else:
            within = True

        if qualifies and within:
            state.stop_run.append(position)
            if not state.stop_active and len(state.stop_run) >= params.inspected_positions:
                state.stop_active = True
                lon, lat = _centroid(state.stop_run)
                events.append(
                    MovementEvent(
                        MovementEventType.STOP_START,
                        position.mmsi,
                        lon,
                        lat,
                        state.stop_run[0].timestamp,
                        speed_mps=now.speed_mps,
                    )
                )
        else:
            events.extend(self._finalize_stop_run(state))
            if qualifies:
                state.stop_run.append(position)
        return events

    def _finalize_stop_run(self, state: _VesselState) -> list[MovementEvent]:
        """Close the current stop run, emitting its centroid if it matured."""
        events: list[MovementEvent] = []
        if state.stop_active and state.stop_run:
            lon, lat = _centroid(state.stop_run)
            first = state.stop_run[0]
            last = state.stop_run[-1]
            events.append(
                MovementEvent(
                    MovementEventType.STOP_END,
                    first.mmsi,
                    lon,
                    lat,
                    last.timestamp,
                    duration_seconds=last.timestamp - first.timestamp,
                )
            )
        state.stop_run.clear()
        state.stop_active = False
        return events

    def _slow_motion_detector(
        self,
        state: _VesselState,
        position: PositionalTuple,
        now: VelocityVector,
    ) -> list[MovementEvent]:
        """m consecutive low-speed reports along a path -> slow motion."""
        params = self.parameters
        if now.speed_mps > params.slow_speed_mps:
            state.slow_run.clear()
            return []
        state.slow_run.append((position, now.speed_mps))
        if len(state.slow_run) < params.inspected_positions:
            return []
        run_points = [p for p, _ in state.slow_run]
        anchor = run_points[0]
        extent = max(
            haversine_meters(anchor.lon, anchor.lat, p.lon, p.lat)
            for p in run_points
        )
        first_ts = run_points[0].timestamp
        last_ts = run_points[-1].timestamp
        state.slow_run.clear()
        if extent <= params.stop_radius_meters:
            # Confined low-speed run: that is a stop, not slow motion; the
            # stop detector reports it.
            return []
        median_point = _median_position(run_points)
        return [
            MovementEvent(
                MovementEventType.SLOW_MOTION,
                position.mmsi,
                median_point.lon,
                median_point.lat,
                median_point.timestamp,
                speed_mps=now.speed_mps,
                duration_seconds=last_ts - first_ts,
            )
        ]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _event(
        self,
        event_type: MovementEventType,
        position: PositionalTuple,
        velocity: VelocityVector,
    ) -> MovementEvent:
        return MovementEvent(
            event_type,
            position.mmsi,
            position.lon,
            position.lat,
            position.timestamp,
            speed_mps=velocity.speed_mps,
            heading_degrees=velocity.heading_degrees,
        )

    def _count(self, events: list[MovementEvent]) -> list[MovementEvent]:
        for event in events:
            self.statistics.count_event(event.event_type)
        return events


def _median_position(points: list[PositionalTuple]) -> PositionalTuple:
    """The temporally middle point of a run (the paper's representative)."""
    return points[len(points) // 2]

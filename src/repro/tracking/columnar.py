"""Batch/columnar tracking kernel: the Mobility Tracker's hot path, fused.

The scalar reference tracker (``tests/tracking/oracle.py``) examines
one tuple at a time through a stack of per-detector method calls —
clear, but the method dispatch, parameter-property recomputation and
throwaway :class:`VelocityVector` allocations dominate the per-slide
tracking cost (a whole-pipeline replay showed tracking at ~29 ms mean
per slide against ~1.4 ms reconstruction).  :class:`ColumnarTracker`
keeps the exact same event semantics but restructures each slide's work
around data instead of tuples:

1. the batch is grouped into **per-MMSI shards** of parallel columns —
   ``lon``/``lat`` plus derived τ / ``cos(lat)`` / ``sin(lat)`` columns
   — so each position's latitude trigonometry is computed once per
   slide instead of once per Haversine/bearing call;
2. consecutive-pair geometry (Haversine distance, speed, initial
   bearing) is **precomputed over whole runs** in tight comprehension
   passes, and the gap/turn/stop/slow-motion detectors run in one fused
   loop per vessel with every threshold hoisted to a local — no
   per-tuple method dispatch, no intermediate velocity objects;
3. the per-position event lists are spliced back into exact arrival
   order, so the emitted :class:`MovementEvent` stream is
   **byte-identical** to the scalar tracker's
   (``tests/tracking/test_columnar_parity.py`` replays the full
   simulator fleet through both and compares).

The byte-identity contract constrains every arithmetic rewrite: each
batched expression reproduces the scalar code's operation order exactly
(e.g. ``sin(dphi / 2.0) ** 2`` stays a ``**`` — libm ``pow(x, 2.0)`` is
*not* always ``x * x`` in the last ulp), and the Haversine clamp keeps
the scalar ``min/max`` form so even NaN inputs take identical paths.
Positions rejected mid-run (out-of-sequence or off-course) break the
consecutive-pair chain; the fused loop then recomputes that one pair
inline against the true previous position and re-enters the precomputed
stream at the next accepted tuple.
"""

import math
from collections import defaultdict, deque
from collections.abc import Iterable
from itertools import islice as _islice
from operator import itemgetter as _itemgetter, sub as _sub, truediv as _truediv

from repro import obs
from repro.ais.stream import PositionalTuple
from repro.geo.haversine import (
    EARTH_RADIUS_METERS,
    haversine_meters,
    initial_bearing_degrees,
)
from repro.tracking.config import TrackingParameters
from repro.tracking.types import (
    MovementEvent,
    MovementEventType,
    TrackerStatistics,
    VelocityVector,
)

_PAUSE = MovementEventType.PAUSE
_SPEED_CHANGE = MovementEventType.SPEED_CHANGE
_TURN = MovementEventType.TURN
_OFF_COURSE = MovementEventType.OFF_COURSE
_GAP_START = MovementEventType.GAP_START
_GAP_END = MovementEventType.GAP_END
_SMOOTH_TURN = MovementEventType.SMOOTH_TURN
_STOP_START = MovementEventType.STOP_START
_STOP_END = MovementEventType.STOP_END
_SLOW_MOTION = MovementEventType.SLOW_MOTION

#: ``2.0 * EARTH_RADIUS_METERS`` is exact (the doubling only shifts the
#: exponent), so hoisting it keeps the Haversine arc byte-identical to
#: the scalar left-associative ``2.0 * R * asin(...)``.
_TWO_RADII = 2.0 * EARTH_RADIUS_METERS

#: Trig-free overestimate of the Haversine distance: with
#: ``a <= (dphi/2)^2 + (dlam/2)^2`` (sin x <= x) and ``asin x <= pi*x/2``,
#: ``d <= (pi*R/2) * sqrt(dphi^2 + dlam^2)``.  The overestimate factor is
#: ``(pi/2) * (sqrt(a)/asin(sqrt(a)))`` — essentially pi/2 at stop-radius
#: scale — so a bound at or under the radius *proves* the point is within
#: it, replacing four trig calls with two squares for the tight-jitter
#: common case.  Only booleans derived from these distances are observable,
#: so the screen cannot perturb parity.
_WITHIN_BOUND = math.pi * EARTH_RADIUS_METERS / 2.0


#: Floor of the speed-change ratio's denominator (a halted vessel).
_EPSILON_SPEED = 1e-9


def _centroid(points: list[PositionalTuple]) -> tuple[float, float]:
    """Plain coordinate centroid; adequate over a stop radius of ~200 m."""
    n = len(points)
    return (sum(p.lon for p in points) / n, sum(p.lat for p in points) / n)


def _circular_mean_degrees(headings: Iterable[float]) -> float:
    """Mean of angles in degrees, correct across the 0/360 wrap."""
    sum_sin = 0.0
    sum_cos = 0.0
    count = 0
    for heading in headings:
        radians = math.radians(heading)
        sum_sin += math.sin(radians)
        sum_cos += math.cos(radians)
        count += 1
    if count == 0 or (abs(sum_sin) < 1e-12 and abs(sum_cos) < 1e-12):
        return 0.0
    return math.degrees(math.atan2(sum_sin, sum_cos)) % 360.0


class _ColumnarVesselState:
    """Per-vessel carry-over between slides, as plain scalars.

    The same bookkeeping as the scalar tracker's ``_VesselState``, but the
    velocity vector is unpacked into ``(has_velocity, v_speed, v_heading)``
    and the last position carries its precomputed latitude trigonometry so
    cross-slide pairs reuse it.  Everything is picklable — the runtime
    checkpoints trackers wholesale.
    """

    __slots__ = (
        "last",
        "last_cos",
        "last_sin",
        "has_velocity",
        "v_speed",
        "v_heading",
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
        self.last_cos = 1.0
        self.last_sin = 0.0
        self.has_velocity = False
        self.v_speed = 0.0
        self.v_heading = 0.0
        self.recent_speeds: deque[float] = deque(maxlen=history_length)
        self.recent_headings: deque[float] = deque(maxlen=history_length)
        self.cumulative_turn = 0.0
        self.stop_run: list[PositionalTuple] = []
        self.stop_active = False
        self.slow_run: list[tuple[PositionalTuple, float]] = []
        self.consecutive_outliers = 0
        self.traveled_meters = 0.0

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


class ColumnarTracker:
    """Batch/columnar trajectory-event detection, scalar-parity guaranteed.

    Held to the scalar reference tracker of ``tests/tracking/oracle.py``:
    the same constructor, ``process`` / ``process_batch`` / ``finalize``
    surface, the same :class:`TrackerStatistics`, and — the load-bearing
    property — the same events in the same order for the same input.
    """

    def __init__(self, parameters: TrackingParameters | None = None):
        self.parameters = parameters or TrackingParameters()
        self.statistics = TrackerStatistics()
        self._vessels: dict[int, _ColumnarVesselState] = {}
        # Thresholds converted once; every value equals what the scalar
        # tracker recomputes per access (pure functions of frozen
        # parameter fields), so hoisting cannot change any comparison.
        p = self.parameters
        self._min_speed = p.min_speed_mps
        self._gap_period = p.gap_period_seconds
        self._speed_change_frac = p.speed_change_percent / 100.0
        self._turn_threshold = p.turn_threshold_degrees
        self._stop_radius = p.stop_radius_meters
        self._slow_speed = p.slow_speed_mps
        self._m_positions = p.inspected_positions
        self._outlier_factor = p.outlier_speed_factor
        self._outlier_min_speed = p.outlier_min_speed_mps
        self._outlier_heading = p.outlier_heading_degrees
        self._max_outliers = p.max_consecutive_outliers

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def process(self, position: PositionalTuple) -> list[MovementEvent]:
        """Examine one positional tuple; return the events it triggered."""
        return self._run_batch([position])

    def process_batch(
        self, positions: Iterable[PositionalTuple]
    ) -> list[MovementEvent]:
        """Process a batch of tuples (one window slide worth of arrivals)."""
        with obs.span("tracking.process_batch"):
            batch = (
                positions if isinstance(positions, list) else list(positions)
            )
            events = self._run_batch(batch)
            obs.count("tracking.positions", len(batch))
            obs.count("tracking.movement_events", len(events))
            return events

    def process_batch_tagged(
        self, indexed_positions: list
    ) -> list[tuple[tuple[int, int], MovementEvent]]:
        """Batch entry point for the shard runtime.

        Takes ``(global_index, position)`` pairs, returns
        ``((global_index, k), event)`` tagged events with ``k``
        enumerating each position's events in emission order — the same
        tags the scalar per-position loop produces, so the supervisor's
        merge stays byte-identical.
        """
        positions = [position for _, position in indexed_positions]
        pending = self._collect_batch(positions)
        count_event = self.statistics.count_event
        tagged: list[tuple[tuple[int, int], MovementEvent]] = []
        previous_index = -1
        k = 0
        for local_index, event in pending:
            count_event(event.event_type)
            k = k + 1 if local_index == previous_index else 0
            previous_index = local_index
            tagged.append(((indexed_positions[local_index][0], k), event))
        return tagged

    def finalize(self) -> list[MovementEvent]:
        """Close open long-lasting events at end-of-stream."""
        events: list[MovementEvent] = []
        for state in self._vessels.values():
            if state.stop_active and state.stop_run:
                lon, lat = _centroid(state.stop_run)
                first = state.stop_run[0]
                last = state.stop_run[-1]
                events.append(
                    MovementEvent(
                        _STOP_END,
                        first.mmsi,
                        lon,
                        lat,
                        last.timestamp,
                        duration_seconds=last.timestamp - first.timestamp,
                    )
                )
            state.stop_run.clear()
            state.stop_active = False
            state.slow_run.clear()
        for event in events:
            self.statistics.count_event(event.event_type)
        return events

    def vessel_count(self) -> int:
        """Number of vessels with tracked state."""
        return len(self._vessels)

    def current_velocity(self, mmsi: int) -> VelocityVector | None:
        """Latest velocity vector of a vessel, if any."""
        state = self._vessels.get(mmsi)
        if state is None or not state.has_velocity:
            return None
        return VelocityVector(state.v_speed, state.v_heading)

    def traveled_distance_meters(self, mmsi: int) -> float:
        """Cumulative distance sailed since the vessel was first seen."""
        state = self._vessels.get(mmsi)
        return state.traveled_meters if state else 0.0

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------

    def _run_batch(self, batch: list) -> list[MovementEvent]:
        events = [event for _, event in self._collect_batch(batch)]
        count_event = self.statistics.count_event
        for event in events:
            count_event(event.event_type)
        return events

    def _collect_batch(
        self, batch: list
    ) -> list[tuple[int, MovementEvent]]:
        """Run the kernel over one batch.

        Returns ``(batch_index, event)`` pairs in exact scalar emission
        order: grouped per vessel, then spliced back by arrival index.
        Leaves event-type statistics to the caller (tagged and untagged
        entry points count identically, in spliced order).
        """
        self.statistics.positions_seen += len(batch)
        if not batch:
            return []
        # Group into per-MMSI index runs preserving arrival order; vessel
        # states are created in first-appearance order so ``finalize``
        # iterates vessels exactly as the scalar tracker would.
        grouped: dict[int, list[int]] = defaultdict(list)
        for index, position in enumerate(batch):
            grouped[position.mmsi].append(index)
        emit: list[tuple[int, MovementEvent]] = []
        vessels = self._vessels
        history = self._m_positions
        single_vessel = len(grouped) == 1
        for mmsi, indices in grouped.items():
            state = vessels.get(mmsi)
            if state is None:
                state = _ColumnarVesselState(history)
                vessels[mmsi] = state
            if single_vessel:
                self._track_vessel(state, batch, indices, emit)
            else:
                points = list(map(batch.__getitem__, indices))
                self._track_vessel(state, points, indices, emit)
        # Stable sort restores arrival order across vessels while keeping
        # each position's own events in emission order.
        if not single_vessel:
            emit.sort(key=_emit_key)
        return emit

    def _vessel_columns(self, state, points):
        """One vessel run as parallel columns plus pair geometry.

        Returns ``(taus, dist, head)`` — flat per-position columns where
        entry ``i`` describes the consecutive pair ``points[i-1] →
        points[i]`` and entry 0 pairs against the carried ``state.last``
        (or self-pairs for a fresh vessel, whose entry 0 only seeds the
        state).  All pair expressions replicate ``haversine_meters`` and
        ``initial_bearing_degrees`` operation-for-operation — e.g. the
        ``map(sub, ...)`` deltas keep the scalar operand order and
        ``(c1 * c2)`` the scalar grouping — and every branch-free pass
        runs as a C-level ``zip``/``map`` fold.  Speed is *not* a
        column: it is ``dist / dt`` against the previously accepted
        position, and only the fused detector loop knows which positions
        get accepted.
        """
        sin = math.sin
        cos = math.cos
        radians = math.radians
        asin = math.asin
        sqrt = math.sqrt
        atan2 = math.atan2
        degrees = math.degrees
        # ``x ** 2`` converts the exponent and calls libm ``pow(x, 2.0)``
        # — precisely what ``math.pow`` does, minus the generic binary-op
        # dispatch, so the swap is free and bit-identical.
        fpow = math.pow
        # One C-level transpose instead of one attribute walk per column.
        _, lon, lat, taus = zip(*points)
        rlat = list(map(radians, lat))
        cos_col = list(map(cos, rlat))
        sin_col = list(map(sin, rlat))
        last = state.last
        if last is not None:
            carry_lon, carry_lat = last.lon, last.lat
            carry_cos, carry_sin = state.last_cos, state.last_sin
        else:
            carry_lon, carry_lat = lon[0], lat[0]
            carry_cos, carry_sin = cos_col[0], sin_col[0]
        ext_cos = [carry_cos]
        ext_cos += cos_col[:-1]
        ext_sin = [carry_sin]
        ext_sin += sin_col[:-1]

        sub = _sub
        dphi = [radians(lat[0] - carry_lat)]
        dphi += map(radians, map(sub, lat[1:], lat))
        dlam = [radians(lon[0] - carry_lon)]
        dlam += map(radians, map(sub, lon[1:], lon))
        # The scalar clamp ``min(1.0, max(0.0, a))`` is the identity on
        # every in-range arc (including its NaN handling, since NaN
        # fails the chained comparison), so the two builtin calls only
        # run on the out-of-range remainder.
        dist = [
            _TWO_RADII * asin(sqrt(
                t
                if 0.0
                <= (
                    t := fpow(sin(dp / 2.0), 2.0)
                    + (c1 * c2) * fpow(sin(dl / 2.0), 2.0)
                )
                <= 1.0
                else min(1.0, max(0.0, t))
            ))
            for dp, dl, c1, c2 in zip(dphi, dlam, ext_cos, cos_col)
        ]
        # ``initial_bearing_degrees`` inlined minus its x == 0 == y
        # guard: under ``d > 1.0`` that case is unreachable, because
        # y == ±0.0 needs sin(dlam) == ±0.0, i.e. equal longitudes, and
        # then a metre of latitude keeps x well away from zero.  The
        # 360° wrap guard (a tiny negative angle rounding up under the
        # modulo) stays.  With atan2 output confined to [-180°, 180°],
        # the scalar's ``% 360.0`` is exactly "add 360 if negative"
        # (``float.__mod__`` maps a -0.0 remainder to +0.0; ``th + 0.0``
        # does the same), sparing the slow float modulo.
        head = [
            (
                0.0
                if (t := (
                    th + 360.0
                    if (th := degrees(atan2(
                        sin(dl) * c2, c1 * s2 - s1 * c2 * cos(dl)
                    ))) < 0.0
                    else th + 0.0
                )) == 360.0
                else t
            )
            if d > 1.0
            else 0.0
            for d, dl, c2, c1, s2, s1 in zip(
                dist, dlam, cos_col, ext_cos, sin_col, ext_sin
            )
        ]
        return taus, dist, head

    def _quiet_run(self, state, points, taus, dist, head_col):
        """Commit a whole run in column folds if no event can fire.

        Proves — conservatively, bailing to the exact loop on any doubt —
        that every position in the run is accepted cruising: in sequence,
        no gap, faster than every halt/slow threshold, no speed-change or
        (smooth-)turn crossing, off-course impossible.  For such runs the
        per-position state updates collapse into C-level folds that are
        bit-identical to the sequential loop: ``sum(xs, start)`` is the
        same left-to-right float accumulation, ``deque.extend`` the same
        trailing window, and the final velocity is simply the last pair's.

        Returns how many leading positions were committed: the whole run
        on a clean pass, a :meth:`_quiet_prefix` count when a fold trips
        somewhere inside it, zero when the loop must replay from the top.
        """
        if (
            state.last is None
            or not state.has_velocity
            or state.stop_run
            or state.slow_run
            or state.stop_active
            or state.v_speed <= self._min_speed
        ):
            return 0
        dts = [taus[0] - state.last.timestamp]
        dts += map(_sub, taus[1:], taus)
        min_dt = min(dts)
        if min_dt <= 0 or max(dts) > self._gap_period:
            return self._quiet_prefix(state, points, taus, dist, head_col)
        speeds = list(map(_truediv, dist, dts))
        low = min(speeds)
        if low <= self._slow_speed or low <= self._min_speed:
            return self._quiet_prefix(state, points, taus, dist, head_col)
        # A sub-meter pair would carry the previous heading instead of
        # the precomputed bearing; let the loop sort it out.  With every
        # speed above the slow threshold, ``low * min_dt`` already bounds
        # every distance from below (up to a division rounding), so the
        # extra fold only runs for sub-second report intervals.
        if low * min_dt <= 1.01 and min(dist) <= 1.0:
            return self._quiet_prefix(state, points, taus, dist, head_col)
        high = max(speeds)
        recent_speeds = state.recent_speeds
        if high >= self._outlier_min_speed:
            # The off-course gate opens somewhere in the run: prove the
            # speed-jump test cannot fire against any window mean.  Every
            # window is a subset of (carried recents ∪ this run), whose
            # computed mean is at least 0.99 × the set's minimum (float
            # mean error over ≤ m terms is parts in 2⁻⁴⁹), so a top speed
            # at most 0.99 × factor × that minimum can never jump it.
            floor = min(low, min(recent_speeds)) if recent_speeds else low
            if floor < self._min_speed:
                floor = self._min_speed
            if high > 0.99 * (self._outlier_factor * floor):
                # The cheap bound is min-based and trips on vessels
                # accelerating out of a slow window; settle it exactly by
                # replaying the scalar speed-jump test over a throwaway
                # copy of the rolling window (same deque order, same
                # ``sum``, so the same float mean).  Any jump means
                # ``_is_off_course`` could fire: bail to the loop.
                window = deque(recent_speeds, recent_speeds.maxlen)
                window_append = window.append
                factor = self._outlier_factor
                gate = self._outlier_min_speed
                min_speed = self._min_speed
                for s in speeds:
                    if s >= gate and len(window) >= 3:
                        mean = sum(window) / len(window)
                        if s > factor * (
                            mean if mean > min_speed else min_speed
                        ):
                            return self._quiet_prefix(
                                state, points, taus, dist, head_col
                            )
                    window_append(s)
        v0 = state.v_speed
        lo_band = low if low <= v0 else v0
        hi_band = high if high >= v0 else v0
        # Every pair ratio |Δv|/v is at most (band width) / low, so a
        # steady band proves no SPEED_CHANGE in O(1); the 1e-6 haircut
        # absorbs the fold's few ulps of division rounding.
        if (hi_band - lo_band) / low > self._speed_change_frac * 0.999999:
            ext_speeds = [v0]
            ext_speeds += speeds[:-1]
            # Denominator is the current speed (all above the epsilon
            # floor); ``abs(b - a)`` equals the scalar's branch-negated
            # delta bit for bit, so the whole ratio screen folds at C
            # level and its maximum crossing the threshold is exactly
            # "some event fires".
            if max(map(
                _truediv, map(abs, map(_sub, speeds, ext_speeds)), speeds
            )) > self._speed_change_frac:
                return self._quiet_prefix(
                    state, points, taus, dist, head_col
                )
        turn_threshold = self._turn_threshold
        neg_threshold = -turn_threshold
        # One pass settles both turn detectors.  Headings live in
        # [0, 360), so ``(b - a) % 360.0`` reduces to one conditional
        # add: non-negative deltas pass through ``fmod`` unchanged (a
        # zero delta is already +0.0), negative ones gain exactly 360 —
        # the very add the modulo performs.  The TURN screen needs a
        # nanodegree of slack (the scalar folds ``abs(b - a) % 360``,
        # off from ``abs(signed)`` by a few ulps of 360); the smooth-turn
        # accumulation is inherently sequential (sign flips reset it)
        # and is the scalar update verbatim, minus emission.  Either
        # threshold crossing means an event would fire: bail with the
        # state untouched and let the prefix scan replay exactly.
        limit = turn_threshold - 1e-9
        neg_limit = -limit
        total_turn = state.cumulative_turn
        prev_head = state.v_heading
        for b in head_col:
            s = b - prev_head
            if s < 0.0:
                s += 360.0
            if s > 180.0:
                s -= 360.0
            if s > limit or s < neg_limit:
                return self._quiet_prefix(state, points, taus, dist, head_col)
            if total_turn * s < 0:
                total_turn = s
            else:
                total_turn += s
            if total_turn > turn_threshold or total_turn < neg_threshold:
                return self._quiet_prefix(state, points, taus, dist, head_col)
            prev_head = b

        state.last = points[-1]
        state.v_speed = speeds[-1]
        state.v_heading = head_col[-1]
        state.cumulative_turn = total_turn
        state.consecutive_outliers = 0
        recent_speeds.extend(speeds)
        state.recent_headings.extend(head_col)
        state.traveled_meters = sum(dist, state.traveled_meters)
        last_rlat = math.radians(state.last.lat)
        state.last_cos = math.cos(last_rlat)
        state.last_sin = math.sin(last_rlat)
        return len(taus)

    def _quiet_prefix(self, state, points, taus, dist, head_col):
        """Commit the longest provably-quiet prefix of a noisy run.

        A fold in :meth:`_quiet_run` flags *some* position; the ones
        before it are still plain cruising that the loop would replay one
        attribute access at a time.  This scan walks the columns with the
        scalar's own per-position tests — the exact ``max(speed, ε)``
        ratio, the folded absolute turn, the signed smooth-turn
        accumulation, the rolling-window speed-jump — and stops at the
        first position where any event could fire or any acceptance is in
        doubt (out-of-sequence, gap, halt/slow, sub-meter pair).  Every
        scanned-past position is therefore committed with the same floats
        the loop would produce; the caller replays only the tail.
        """
        gap_period = self._gap_period
        min_speed = self._min_speed
        slow_speed = self._slow_speed
        speed_change_frac = self._speed_change_frac
        turn_threshold = self._turn_threshold
        neg_threshold = -turn_threshold
        outlier_factor = self._outlier_factor
        outlier_gate = self._outlier_min_speed
        recent_speeds = state.recent_speeds
        window = deque(recent_speeds, recent_speeds.maxlen)
        window_append = window.append
        run_speeds = []
        run_speeds_append = run_speeds.append
        prev_tau = state.last.timestamp
        prev_speed = state.v_speed
        prev_head = state.v_heading
        total_turn = state.cumulative_turn
        traveled = state.traveled_meters
        for tau, d, h in zip(taus, dist, head_col):
            dt = tau - prev_tau
            if dt <= 0 or dt > gap_period:
                break
            s = d / dt
            if s <= slow_speed or s <= min_speed or d <= 1.0:
                break
            if s >= outlier_gate and len(window) >= 3:
                mean = sum(window) / len(window)
                if s > outlier_factor * (
                    mean if mean > min_speed else min_speed
                ):
                    break
            if abs(s - prev_speed) / (
                s if s > _EPSILON_SPEED else _EPSILON_SPEED
            ) > speed_change_frac:
                break
            change = abs(h - prev_head) % 360.0
            if change > 180.0:
                change = 360.0 - change
            if change > turn_threshold:
                break
            signed = (h - prev_head) % 360.0
            if signed > 180.0:
                signed -= 360.0
            if total_turn * signed < 0:
                new_total = signed
            else:
                new_total = total_turn + signed
            if new_total > turn_threshold or new_total < neg_threshold:
                break
            total_turn = new_total
            window_append(s)
            run_speeds_append(s)
            traveled += d
            prev_tau = tau
            prev_speed = s
            prev_head = h
        count = len(run_speeds)
        if count == 0:
            return 0
        state.last = points[count - 1]
        state.v_speed = prev_speed
        state.v_heading = prev_head
        state.cumulative_turn = total_turn
        state.consecutive_outliers = 0
        recent_speeds.extend(run_speeds)
        state.recent_headings.extend(head_col[:count])
        state.traveled_meters = traveled
        last_rlat = math.radians(state.last.lat)
        state.last_cos = math.cos(last_rlat)
        state.last_sin = math.sin(last_rlat)
        return count

    def _track_vessel(self, state, points, indices, emit):
        # Locals for everything the loop touches — threshold hoisting and
        # attribute-to-local conversion are where the batch layout wins.
        taus, dist, head_col = self._vessel_columns(state, points)
        committed = self._quiet_run(state, points, taus, dist, head_col)
        if committed == len(points):
            return
        min_speed = self._min_speed
        gap_period = self._gap_period
        speed_change_frac = self._speed_change_frac
        turn_threshold = self._turn_threshold
        neg_turn_threshold = -self._turn_threshold
        stop_radius = self._stop_radius
        slow_speed = self._slow_speed
        m_positions = self._m_positions
        outlier_factor = self._outlier_factor
        outlier_min_speed = self._outlier_min_speed
        outlier_heading = self._outlier_heading
        max_outliers = self._max_outliers
        emit_append = emit.append
        radians = math.radians
        sqrt = math.sqrt
        within_bound = _WITHIN_BOUND

        stream = zip(indices, points, taus, dist, head_col)
        if committed:
            # The quiet prefix is already folded into the state; replay
            # only the tail (the pair chain stays consecutive: the last
            # committed position is the tail's predecessor).
            stream = _islice(stream, committed, None)
        if state.last is None:
            # First position ever seen for this vessel seeds the state.
            _, last, _, _, _ = next(stream)
        else:
            last = state.last
        last_tau = last.timestamp
        has_velocity = state.has_velocity
        v_speed = state.v_speed
        v_heading = state.v_heading
        recent_speeds = state.recent_speeds
        recent_headings = state.recent_headings
        cumulative_turn = state.cumulative_turn
        stop_run = state.stop_run
        stop_active = state.stop_active
        slow_run = state.slow_run
        consecutive_outliers = state.consecutive_outliers
        traveled = state.traveled_meters
        out_of_sequence = 0
        discarded = 0
        # Whether the current tuple's precomputed pair entry is valid —
        # true as long as the previously *accepted* position is the pair
        # predecessor; a skip or discard breaks the chain until the next
        # acceptance re-aligns it.
        consecutive = True

        for batch_index, position, timestamp, p_dist, p_head in stream:
            dt = timestamp - last_tau
            if dt <= 0:
                # Stale or duplicated timestamp: no new motion information.
                out_of_sequence += 1
                consecutive = False
                continue

            if dt > gap_period:
                # Communication gap: close runs, report start/end points.
                if stop_active and stop_run:
                    c_lon, c_lat = _centroid(stop_run)
                    run_first = stop_run[0]
                    run_last = stop_run[-1]
                    emit_append((batch_index, MovementEvent(
                        _STOP_END,
                        run_first.mmsi,
                        c_lon,
                        c_lat,
                        run_last.timestamp,
                        duration_seconds=(
                            run_last.timestamp - run_first.timestamp
                        ),
                    )))
                stop_run.clear()
                stop_active = False
                slow_run.clear()
                cumulative_turn = 0.0
                gap_speed = v_speed if has_velocity else 0.0
                gap_heading = v_heading if has_velocity else 0.0
                emit_append((batch_index, MovementEvent(
                    _GAP_START,
                    position.mmsi,
                    last.lon,
                    last.lat,
                    last_tau,
                    speed_mps=gap_speed,
                    heading_degrees=gap_heading,
                    duration_seconds=dt,
                )))
                emit_append((batch_index, MovementEvent(
                    _GAP_END,
                    position.mmsi,
                    position.lon,
                    position.lat,
                    timestamp,
                )))
                # Stale motion features must not leak across the silence;
                # the straight-line distance is the lower bound on what
                # was sailed.
                has_velocity = False
                recent_speeds.clear()
                recent_headings.clear()
                if consecutive:
                    traveled += p_dist
                else:
                    traveled += haversine_meters(
                        last.lon, last.lat, position.lon, position.lat
                    )
                last = position
                last_tau = timestamp
                consecutive = True
                continue

            if consecutive:
                distance = p_dist
                speed = distance / dt
                if distance > 1.0:
                    heading = p_head
                elif has_velocity:
                    # Sub-meter displacement: bearing is GPS noise, keep
                    # the course.
                    heading = v_heading
                else:
                    heading = 0.0
            else:
                # Chain broken by a skip/discard: recompute this single
                # pair against the true previous position through the
                # very functions the scalar tracker calls.
                distance = haversine_meters(
                    last.lon, last.lat, position.lon, position.lat
                )
                speed = distance / dt
                if distance > 1.0:
                    heading = initial_bearing_degrees(
                        last.lon, last.lat, position.lon, position.lat
                    )
                elif has_velocity:
                    heading = v_heading
                else:
                    heading = 0.0

            # Off-course: abrupt deviation from the recent mean velocity.
            # Gated on the speed floor first: ``speed >= outlier_min_speed``
            # is a necessary condition for the scalar test, so skipping the
            # mean for slower reports short-circuits to the same outcome.
            if speed >= outlier_min_speed and len(recent_speeds) >= 3:
                mean_speed = sum(recent_speeds) / len(recent_speeds)
                if speed > outlier_factor * max(mean_speed, min_speed):
                    if mean_speed < min_speed:
                        # Halted vessel: any such jump is a positioning
                        # glitch; heading against a jittering anchor
                        # course is meaningless.
                        off_course = True
                    else:
                        mean_heading = _circular_mean_degrees(
                            recent_headings
                        )
                        deviation = abs(heading - mean_heading) % 360.0
                        if deviation > 180.0:
                            deviation = 360.0 - deviation
                        off_course = deviation > outlier_heading
                    if off_course:
                        consecutive_outliers += 1
                        if consecutive_outliers <= max_outliers:
                            discarded += 1
                            emit_append((batch_index, MovementEvent(
                                _OFF_COURSE,
                                position.mmsi,
                                position.lon,
                                position.lat,
                                timestamp,
                                speed_mps=speed,
                                heading_degrees=heading,
                            )))
                            # Dropped: the previous position stays
                            # anchored so the distorted segment never
                            # enters the synopsis.
                            consecutive = False
                            continue
                    # Accepted: either not off-course after all, or the
                    # course genuinely changed after too many successive
                    # "outliers".
                    consecutive_outliers = 0
                else:
                    consecutive_outliers = 0
            else:
                consecutive_outliers = 0

            # Instantaneous events.
            paused = speed <= min_speed
            if paused:
                emit_append((batch_index, MovementEvent(
                    _PAUSE,
                    position.mmsi,
                    position.lon,
                    position.lat,
                    timestamp,
                    speed_mps=speed,
                    heading_degrees=heading,
                )))
            turned = False
            if has_velocity:
                denominator = (
                    speed if speed > _EPSILON_SPEED else _EPSILON_SPEED
                )
                delta = speed - v_speed
                if delta < 0.0:
                    delta = -delta
                if delta / denominator > speed_change_frac \
                        and not (paused and v_speed <= min_speed):
                    emit_append((batch_index, MovementEvent(
                        _SPEED_CHANGE,
                        position.mmsi,
                        position.lon,
                        position.lat,
                        timestamp,
                        speed_mps=speed,
                        heading_degrees=heading,
                    )))
                if not paused and v_speed > min_speed:
                    # Both endpoints moving: test for a sharp turn, and
                    # when there is none accumulate the small signed
                    # change towards a smooth turn.
                    change = heading - v_heading
                    if change < 0.0:
                        change = -change
                    change %= 360.0
                    if change > 180.0:
                        change = 360.0 - change
                    if change > turn_threshold:
                        turned = True
                        # The sharp turn is reported here; restart the
                        # smooth accumulation from the new course.
                        cumulative_turn = 0.0
                        emit_append((batch_index, MovementEvent(
                            _TURN,
                            position.mmsi,
                            position.lon,
                            position.lat,
                            timestamp,
                            speed_mps=speed,
                            heading_degrees=heading,
                        )))
                    else:
                        signed_change = (heading - v_heading) % 360.0
                        if signed_change > 180.0:
                            signed_change -= 360.0
                        # A sign flip means the drift reversed; restart
                        # from this change so alternating jitter does not
                        # accumulate.
                        if cumulative_turn * signed_change < 0:
                            cumulative_turn = signed_change
                        else:
                            cumulative_turn += signed_change
                        if (
                            cumulative_turn > turn_threshold
                            or cumulative_turn < neg_turn_threshold
                        ):
                            cumulative_turn = 0.0
                            emit_append((batch_index, MovementEvent(
                                _SMOOTH_TURN,
                                position.mmsi,
                                position.lon,
                                position.lat,
                                timestamp,
                                speed_mps=speed,
                                heading_degrees=heading,
                            )))
                else:
                    # One endpoint halted: no course to accumulate.
                    cumulative_turn = 0.0
            else:
                cumulative_turn = 0.0

            # Long-term stop: consecutive pause/turn points in a radius.
            # A non-qualifying point with no open run leaves the detector
            # untouched (``stop_active`` implies a non-empty run), so the
            # whole block is skipped on the cruising fast path.
            qualifies = paused or turned
            if qualifies or stop_run:
                if qualifies and stop_run:
                    anchor = stop_run[0]
                    # A stopped vessel jitters within meters of its
                    # anchor: prove "within" by the trig-free bound and
                    # fall back to the exact distance only when the
                    # point strays near the radius.
                    dphi_b = radians(position.lat - anchor.lat)
                    dlam_b = radians(position.lon - anchor.lon)
                    within = (
                        within_bound
                        * sqrt(dphi_b * dphi_b + dlam_b * dlam_b)
                        <= stop_radius
                        or haversine_meters(
                            anchor.lon, anchor.lat, position.lon, position.lat
                        )
                        <= stop_radius
                    )
                else:
                    within = True
                if qualifies and within:
                    stop_run.append(position)
                    if not stop_active and len(stop_run) >= m_positions:
                        stop_active = True
                        c_lon, c_lat = _centroid(stop_run)
                        emit_append((batch_index, MovementEvent(
                            _STOP_START,
                            position.mmsi,
                            c_lon,
                            c_lat,
                            stop_run[0].timestamp,
                            speed_mps=speed,
                        )))
                else:
                    if stop_active and stop_run:
                        c_lon, c_lat = _centroid(stop_run)
                        run_first = stop_run[0]
                        run_last = stop_run[-1]
                        emit_append((batch_index, MovementEvent(
                            _STOP_END,
                            run_first.mmsi,
                            c_lon,
                            c_lat,
                            run_last.timestamp,
                            duration_seconds=(
                                run_last.timestamp - run_first.timestamp
                            ),
                        )))
                    stop_run.clear()
                    stop_active = False
                    if qualifies:
                        stop_run.append(position)

            # Slow motion: m consecutive low-speed reports along a path.
            if speed > slow_speed:
                if slow_run:
                    slow_run.clear()
            else:
                slow_run.append((position, speed))
                if len(slow_run) >= m_positions:
                    run_points = [p for p, _ in slow_run]
                    anchor = run_points[0]
                    # Only ``extent > radius`` is observable, so the max
                    # fold collapses to a short-circuiting any() with the
                    # same trig-free within screen per point.
                    a_lon = anchor.lon
                    a_lat = anchor.lat
                    spread = False
                    for p in run_points:
                        dphi_b = radians(p.lat - a_lat)
                        dlam_b = radians(p.lon - a_lon)
                        if (
                            within_bound
                            * sqrt(dphi_b * dphi_b + dlam_b * dlam_b)
                            > stop_radius
                            and haversine_meters(a_lon, a_lat, p.lon, p.lat)
                            > stop_radius
                        ):
                            spread = True
                            break
                    first_ts = run_points[0].timestamp
                    last_ts = run_points[-1].timestamp
                    slow_run.clear()
                    if spread:
                        median_point = run_points[len(run_points) // 2]
                        emit_append((batch_index, MovementEvent(
                            _SLOW_MOTION,
                            position.mmsi,
                            median_point.lon,
                            median_point.lat,
                            median_point.timestamp,
                            speed_mps=speed,
                            duration_seconds=last_ts - first_ts,
                        )))
                    # else: confined low-speed run — that is a stop, not
                    # slow motion; the stop detector reports it.

            recent_speeds.append(speed)
            recent_headings.append(heading)
            has_velocity = True
            v_speed = speed
            v_heading = heading
            last = position
            last_tau = timestamp
            consecutive = True
            traveled += distance

        if out_of_sequence:
            self.statistics.positions_out_of_sequence += out_of_sequence
        if discarded:
            self.statistics.positions_discarded_as_outliers += discarded
        state.last = last
        # The carried trigonometry is a pure function of the carried
        # position, so recomputing it once per run replaces two stores on
        # every accepted position (bit-identical: same function, same
        # input as the column entries).
        last_rlat = math.radians(last.lat)
        state.last_cos = math.cos(last_rlat)
        state.last_sin = math.sin(last_rlat)
        state.has_velocity = has_velocity
        state.v_speed = v_speed
        state.v_heading = v_heading
        state.cumulative_turn = cumulative_turn
        state.stop_active = stop_active
        state.consecutive_outliers = consecutive_outliers
        state.traveled_meters = traveled


#: C-level sort key for the arrival-order splice (tuples would compare
#: their MovementEvent payloads on ties without it).
_emit_key = _itemgetter(0)

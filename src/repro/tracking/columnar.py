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
3. the per-vessel events are merged back into ``(timestamp, mmsi)``
   order, so the emitted :class:`MovementEvent` stream is
   **byte-identical** to the scalar tracker's on the sorted slide
   (``tests/tracking/test_columnar_parity.py``).

The byte-identity contract constrains every arithmetic rewrite: each
batched expression reproduces the scalar code's operation order exactly
(e.g. ``sin(dphi / 2.0) ** 2`` stays a ``**`` — libm ``pow(x, 2.0)`` is
*not* always ``x * x`` in the last ulp), and the Haversine clamp keeps
the scalar ``min/max`` form so even NaN inputs take identical paths.
Positions rejected mid-run (out-of-sequence or off-course) break the
consecutive-pair chain; the fused loop then recomputes that one pair
inline against the true previous position and re-enters the precomputed
stream at the next accepted tuple.

Every slide is tracked by :meth:`ColumnarTracker.track`: per vessel,
each read is put in timestamp order, ties as they came, and tracked at
once while it does not fall behind the vessel's earlier reads, against
a snapshot taken when the slide first touched the vessel; a vessel that
falls behind waits for the close.  A live node tracks each read as it
arrives; a replay tracks the whole slide as one read (``process_batch``).
:meth:`ColumnarTracker.close_slide` closes whatever was tracked and
returns the slide's events in ``(timestamp, mmsi)`` order
(``tests/tracking/test_arrival_parity.py``), with the closed slide:
the caller frees its positions and snapshots by dropping it.  The
tracker is the live node's one record of each vessel: ``/vessels``
reads its last accepted position and velocity vector.
"""

import math
from collections import Counter, defaultdict, deque
from collections.abc import Iterable
from operator import (
    attrgetter as _attrgetter,
    gt as _gt,
    itemgetter as _itemgetter,
    sub as _sub,
    truediv as _truediv,
)

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
    cross-slide pairs reuse it.
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

    def snapshot(self) -> tuple:
        """The state, out of reach of the kernel's in-place updates."""
        return (
            self.last,
            self.last_cos,
            self.last_sin,
            self.has_velocity,
            self.v_speed,
            self.v_heading,
            tuple(self.recent_speeds),
            tuple(self.recent_headings),
            self.cumulative_turn,
            tuple(self.stop_run),
            self.stop_active,
            tuple(self.slow_run),
            self.consecutive_outliers,
        )

    def restore(self, snapshot: tuple) -> None:
        """Go back to a :meth:`snapshot`."""
        (
            self.last,
            self.last_cos,
            self.last_sin,
            self.has_velocity,
            self.v_speed,
            self.v_heading,
            recent_speeds,
            recent_headings,
            self.cumulative_turn,
            stop_run,
            self.stop_active,
            slow_run,
            self.consecutive_outliers,
        ) = snapshot
        history = self.recent_speeds.maxlen
        self.recent_speeds = deque(recent_speeds, maxlen=history)
        self.recent_headings = deque(recent_headings, maxlen=history)
        self.stop_run = list(stop_run)
        self.slow_run = list(slow_run)


class _OpenSlide:
    """What :meth:`ColumnarTracker.track` did in the open slide.

    Per vessel a snapshot and dictionary entries, no record object: the
    bookkeeping runs for every vessel of every live slide, and objects
    that live until the close cost the garbage collector extra passes.
    """

    __slots__ = (
        "tracking", "taken", "snapshots", "latest", "points", "emit", "created",
        "skips", "deferred", "rolled_back",
    )

    def __init__(self, tracking: bool) -> None:
        #: Whether :meth:`ColumnarTracker.track` tracks this slide, or
        #: defers every vessel to the close.
        self.tracking = tracking
        #: How many positions :meth:`ColumnarTracker.track` took.
        self.taken = 0
        #: Each touched vessel's state before the slide (a snapshot), or
        #: ``None`` if the slide created the vessel.
        self.snapshots: dict[int, tuple | None] = {}
        #: Each touched vessel's latest tracked timestamp, or ``None``
        #: once it is deferred to the close.
        self.latest: dict[int, int | None] = {}
        #: Every tracked position, in tracking order.
        self.points: list[PositionalTuple] = []
        #: ``(timestamp, mmsi, event)`` of every event they raised, the
        #: timestamp the raising position's.
        self.emit: list[tuple[int, int, MovementEvent]] = []
        #: The first timestamp of every vessel the slide created.
        self.created: dict[int, int] = {}
        #: ``(out_of_sequence, discarded)`` of vessels with any.
        self.skips: dict[int, tuple[int, int]] = {}
        #: Each deferred vessel's positions taken after it was deferred,
        #: each read's run in timestamp order.
        self.deferred: dict[int, list[PositionalTuple]] = {}
        #: Vessels that fell behind their latest timestamp.
        self.rolled_back: set[int] = set()


class ColumnarTracker:
    """Batch/columnar trajectory-event detection, scalar-parity guaranteed.

    Held to the scalar reference tracker of ``tests/tracking/oracle.py``:
    the same constructor, ``process_batch`` / ``finalize`` surface, the
    same :class:`TrackerStatistics`, and — the load-bearing property —
    the same events in the same order for each slide sorted by
    ``(timestamp, mmsi)``.
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
        #: The open slide, once :meth:`track` has opened one.
        self._open: _OpenSlide | None = None
        #: Whether :meth:`track` tracks the next slide: the slide before
        #: rolled back at most :data:`_MAX_ROLLBACK_SHARE` of its vessels.
        self._track_next = True

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def process_batch(
        self, positions: Iterable[PositionalTuple]
    ) -> list[MovementEvent]:
        """One whole window slide: :meth:`track` ``positions``, then
        :meth:`close_slide`."""
        self.track(positions if isinstance(positions, list) else list(positions))
        return self.close_slide()[0]

    def close_slide(self) -> tuple[list[MovementEvent], _OpenSlide]:
        """Close the open slide: the events of every position
        :meth:`track` took since the last close (none if it took
        nothing), and the closed slide.

        The tracker keeps no reference to the closed slide, which holds
        the slide's tracked positions and vessel snapshots: they are
        freed when the caller drops it, so a live caller can free them
        after its alert is out.
        """
        with obs.span("tracking.close_slide"):
            open_slide = self._open or _OpenSlide(self._track_next)
            self._open = None
            events = self._close(open_slide)
            self._track_next = (
                len(open_slide.rolled_back)
                <= len(open_slide.latest) * _MAX_ROLLBACK_SHARE
            )
            if not open_slide.tracking:
                obs.count("tracking.arrival_skipped_slides")
            obs.count("tracking.positions", open_slide.taken)
            obs.count("tracking.movement_events", len(events))
            return events, open_slide

    def track(self, positions: list[PositionalTuple]) -> None:
        """Track arrivals of the open slide now; :meth:`close_slide`
        closes it.

        Each vessel's run of ``positions`` is put in timestamp order,
        ties in the order they came, and tracked at once.  The first
        time the slide touches a vessel, its state is snapshotted.  A
        run stamped earlier than what its vessel has already tracked is
        an inversion: the vessel goes back to its snapshot, and it and
        its later positions wait for the close, which tracks it over the
        whole slide.  Events and statistics are held back until the
        close, which returns them in the slide's ``(timestamp, mmsi)``
        order, ties in arrival order.

        A slide whose close follows one that rolled back more than
        :data:`_MAX_ROLLBACK_SHARE` of its vessels is not tracked here:
        every vessel waits for the close, and the slide's inversions
        decide whether the next one is tracked.
        """
        if self._open is None:
            self._open = _OpenSlide(self._track_next)
        open_slide = self._open
        open_slide.taken += len(positions)
        grouped: dict[int, list[PositionalTuple]] = defaultdict(list)
        for mmsi, position in zip(map(_first, positions), positions):
            grouped[mmsi].append(position)
        tracking = open_slide.tracking
        latest = open_slide.latest
        deferred = open_slide.deferred
        snapshots = open_slide.snapshots
        open_points = open_slide.points
        vessels = self._vessels
        for mmsi, points in grouped.items():
            # Cheaper than checking the order first: a sorted run costs
            # the sort one pass.
            points.sort(key=_stamp)
            previous = latest.get(mmsi, _UNSEEN)
            if previous is None:
                deferred[mmsi] += points
                continue
            if previous is _UNSEEN:
                if not tracking:
                    latest[mmsi] = None
                    deferred[mmsi] = points
                    continue
                state = vessels.get(mmsi)
                if state is None:
                    vessels[mmsi] = _ColumnarVesselState(self._m_positions)
                    snapshots[mmsi] = None
                    open_slide.created[mmsi] = points[0].timestamp
                else:
                    snapshots[mmsi] = state.snapshot()
            elif points[0].timestamp < previous:
                self._restore(mmsi, snapshots[mmsi])
                latest[mmsi] = None
                deferred[mmsi] = points
                open_slide.skips.pop(mmsi, None)
                open_slide.rolled_back.add(mmsi)
                obs.count("tracking.arrival_rollbacks")
                continue
            skips = self._track_vessel(vessels[mmsi], points, open_slide.emit)
            open_points += points
            latest[mmsi] = points[-1].timestamp
            if skips != (0, 0):
                held = open_slide.skips.get(mmsi, (0, 0))
                open_slide.skips[mmsi] = (held[0] + skips[0], held[1] + skips[1])

    def rollback(self) -> None:
        """Forget the open slide: every vessel :meth:`track` touched goes
        back to its snapshot, as if the slide's positions never came."""
        if self._open is not None:
            for mmsi, snapshot in self._open.snapshots.items():
                self._restore(mmsi, snapshot)
            self._open = None

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

    def mmsis(self) -> list[int]:
        """Every vessel with tracked state, sorted."""
        return sorted(self._vessels)

    def last_position(self, mmsi: int) -> PositionalTuple | None:
        """The last position of a vessel the tracker accepted, if any."""
        state = self._vessels.get(mmsi)
        return None if state is None else state.last

    def current_velocity(self, mmsi: int) -> VelocityVector | None:
        """Latest velocity vector of a vessel, if any."""
        state = self._vessels.get(mmsi)
        if state is None or not state.has_velocity:
            return None
        return VelocityVector(state.v_speed, state.v_heading)

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------

    def _restore(self, mmsi: int, snapshot: tuple | None) -> None:
        """Put one vessel back as it was before the open slide."""
        if snapshot is None:
            self._vessels.pop(mmsi, None)
        else:
            self._vessels[mmsi].restore(snapshot)

    def _close(self, open_slide: _OpenSlide) -> list[MovementEvent]:
        """Close the open slide, every position of which :meth:`track` took.

        The held events are ordered by ``(timestamp, mmsi)`` of the
        position that raised each, ties in tracking order: their place
        in the slide in ``(timestamp, mmsi)`` order with ties in arrival
        order.  Each deferred vessel drops its held events and is
        tracked now over all its positions, in timestamp order.  Vessels
        the slide created then move to the end of the vessel table in
        ``(first timestamp, mmsi)`` order, where the sorted slide creates
        them.
        """
        deferred = open_slide.deferred
        skips = open_slide.skips.values()
        out_of_sequence = sum(skipped for skipped, _ in skips)
        discarded = sum(dropped for _, dropped in skips)
        emit = open_slide.emit
        if deferred:
            emit = [item for item in emit if item[1] not in deferred]
            runs: dict[int, list[PositionalTuple]] = {mmsi: [] for mmsi in deferred}
            for point in open_slide.points:
                run = runs.get(point.mmsi)
                if run is not None:
                    run.append(point)
            vessels = self._vessels
            for mmsi, run in runs.items():
                run += deferred[mmsi]
                stamps = list(map(_stamp, run))
                if any(map(_gt, stamps, stamps[1:])):
                    run.sort(key=_stamp)
                    open_slide.rolled_back.add(mmsi)
                state = vessels.get(mmsi)
                if state is None:
                    state = _ColumnarVesselState(self._m_positions)
                    vessels[mmsi] = state
                    open_slide.created[mmsi] = run[0].timestamp
                skipped, dropped = self._track_vessel(state, run, emit)
                out_of_sequence += skipped
                discarded += dropped
        created = open_slide.created
        for _, mmsi in sorted(zip(created.values(), created)):
            self._vessels[mmsi] = self._vessels.pop(mmsi)
        # Two stable sorts on integer keys: cheaper than one on tuples.
        emit.sort(key=_second)
        emit.sort(key=_first)
        events = list(map(_third, emit))
        statistics = self.statistics
        statistics.positions_seen += open_slide.taken
        statistics.positions_out_of_sequence += out_of_sequence
        statistics.positions_discarded_as_outliers += discarded
        by_type = statistics.events_by_type
        for event_type, count in Counter(map(_event_type, events)).items():
            by_type[event_type] = by_type.get(event_type, 0) + count
        return events

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

        Returns whether the run was committed.  On ``False`` the state is
        untouched and the caller replays the whole run exactly.
        """
        if (
            state.last is None
            or not state.has_velocity
            or state.stop_run
            or state.slow_run
            or state.stop_active
            or state.v_speed <= self._min_speed
        ):
            return False
        dts = [taus[0] - state.last.timestamp]
        dts += map(_sub, taus[1:], taus)
        min_dt = min(dts)
        if min_dt <= 0 or max(dts) > self._gap_period:
            return False
        speeds = list(map(_truediv, dist, dts))
        low = min(speeds)
        if low <= self._slow_speed or low <= self._min_speed:
            return False
        # A sub-meter pair would carry the previous heading instead of
        # the precomputed bearing; let the loop sort it out.  With every
        # speed above the slow threshold, ``low * min_dt`` already bounds
        # every distance from below (up to a division rounding), so the
        # extra fold only runs for sub-second report intervals.
        if low * min_dt <= 1.01 and min(dist) <= 1.0:
            return False
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
                return False
        v0 = state.v_speed
        lo_band = low if low <= v0 else v0
        hi_band = high if high >= v0 else v0
        # Every pair ratio |Δv|/v is at most (band width) / low, so a
        # steady band proves no SPEED_CHANGE in O(1); the 1e-6 haircut
        # absorbs the fold's few ulps of division rounding.
        if (hi_band - lo_band) / low > self._speed_change_frac * 0.999999:
            return False
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
        # state untouched and let the loop replay the run exactly.
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
                return False
            if total_turn * s < 0:
                total_turn = s
            else:
                total_turn += s
            if total_turn > turn_threshold or total_turn < neg_threshold:
                return False
            prev_head = b

        state.last = points[-1]
        state.v_speed = speeds[-1]
        state.v_heading = head_col[-1]
        state.cumulative_turn = total_turn
        state.consecutive_outliers = 0
        recent_speeds.extend(speeds)
        state.recent_headings.extend(head_col)
        last_rlat = math.radians(state.last.lat)
        state.last_cos = math.cos(last_rlat)
        state.last_sin = math.sin(last_rlat)
        return True

    def _track_vessel(self, state, points, emit):
        """Track one vessel's run; ``(out_of_sequence, discarded)``.

        Each event is emitted as ``(timestamp, mmsi, event)`` of the
        position that raised it.
        """
        taus, dist, head_col = self._vessel_columns(state, points)
        if self._quiet_run(state, points, taus, dist, head_col):
            return 0, 0
        # Locals for everything the loop touches — threshold hoisting and
        # attribute-to-local conversion are where the batch layout wins.
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

        mmsi = points[0].mmsi
        stream = zip(points, taus, dist, head_col)
        if state.last is None:
            # First position ever seen for this vessel seeds the state.
            last, _, _, _ = next(stream)
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
        out_of_sequence = 0
        discarded = 0
        # Whether the current tuple's precomputed pair entry is valid —
        # true as long as the previously *accepted* position is the pair
        # predecessor; a skip or discard breaks the chain until the next
        # acceptance re-aligns it.
        consecutive = True

        for position, timestamp, p_dist, p_head in stream:
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
                    emit_append((timestamp, mmsi, MovementEvent(
                        _STOP_END,
                        mmsi,
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
                emit_append((timestamp, mmsi, MovementEvent(
                    _GAP_START,
                    mmsi,
                    last.lon,
                    last.lat,
                    last_tau,
                    speed_mps=gap_speed,
                    heading_degrees=gap_heading,
                    duration_seconds=dt,
                )))
                emit_append((timestamp, mmsi, MovementEvent(
                    _GAP_END,
                    mmsi,
                    position.lon,
                    position.lat,
                    timestamp,
                )))
                # Stale motion features must not leak across the silence.
                has_velocity = False
                recent_speeds.clear()
                recent_headings.clear()
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
                            emit_append((timestamp, mmsi, MovementEvent(
                                _OFF_COURSE,
                                mmsi,
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
                emit_append((timestamp, mmsi, MovementEvent(
                    _PAUSE,
                    mmsi,
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
                    emit_append((timestamp, mmsi, MovementEvent(
                        _SPEED_CHANGE,
                        mmsi,
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
                        emit_append((timestamp, mmsi, MovementEvent(
                            _TURN,
                            mmsi,
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
                            emit_append((timestamp, mmsi, MovementEvent(
                                _SMOOTH_TURN,
                                mmsi,
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
                        emit_append((timestamp, mmsi, MovementEvent(
                            _STOP_START,
                            mmsi,
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
                        emit_append((timestamp, mmsi, MovementEvent(
                            _STOP_END,
                            mmsi,
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
                        emit_append((timestamp, mmsi, MovementEvent(
                            _SLOW_MOTION,
                            mmsi,
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
        return out_of_sequence, discarded


#: Parts of an emitted ``(timestamp, mmsi, event)``; ``_first`` is also
#: the MMSI of a :class:`~repro.ais.stream.PositionalTuple`.
_first = _itemgetter(0)
_second = _itemgetter(1)
_third = _itemgetter(2)

_event_type = _attrgetter("event_type")

#: The timestamp of a :class:`~repro.ais.stream.PositionalTuple`.
_stamp = _itemgetter(3)

#: A vessel the open slide has not touched yet.
_UNSEEN = object()

#: The largest share of a slide's vessels that may roll back for the next
#: slide to be tracked on arrival.  Past it (two clients splitting each
#: vessel's reports roll back nearly every vessel) tracking on arrival
#: costs more than it saves, so slides are closed whole, as a replay
#: does, until a watched slide's arrivals come back in order.
_MAX_ROLLBACK_SHARE = 0.1


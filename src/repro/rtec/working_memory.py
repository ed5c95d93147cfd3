"""The working memory: windowed storage of input events and context.

"At each Qi the MEs that fall within a specified sliding window omega
('working memory' in the terminology of RTEC) are taken into consideration.
All MEs that took place before or at Qi - omega are discarded." — Section 4.2.

Two input families are stored:

* **events** — instantaneous occurrences (``gap``, ``turn``, ``stop_start``…)
  with both an occurrence time and an arrival time, so delayed events are
  visible only at query times after they arrive (Figure 5);
* **valued fluents** — step functions such as ``coord(Vessel)``, where each
  assertion sets the value from its timestamp until the next assertion; the
  last assignment before the window is retained so values persist into it.

Events are kept per type sorted by occurrence time, so the engine looks
up what occurred at a timepoint by bisection.  The memory also keeps the
assertions that have not yet become visible to the engine
(:meth:`WorkingMemory.take_arrivals`) — one list append per assertion — so
the incremental engine never scans the window to find what is new.
"""

from bisect import bisect_left, bisect_right, insort_right
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter, itemgetter

_occurrence_time = attrgetter("time")
_entry_time = itemgetter(0)


@dataclass(frozen=True, slots=True)
class EventOccurrence:
    """One ground event occurrence in the working memory."""

    functor: str
    args: tuple
    time: int
    arrival: int


class WorkingMemory:
    """Windowed input store for the RTEC engine."""

    def __init__(self) -> None:
        # functor -> occurrences, sorted by time (assertion order within a
        # timepoint)
        self._events: dict[str, list[EventOccurrence]] = {}
        self._event_count = 0
        # functor -> args -> list of (time, arrival, value) sorted by time
        self._valued: dict[str, dict[tuple, list[tuple[int, int, object]]]] = (
            defaultdict(dict)
        )
        # Assertions not yet handed out by take_arrivals: events, and
        # valued changes as (functor, args, time, arrival).
        self._pending_events: list[EventOccurrence] = []
        self._pending_values: list[tuple[str, tuple, int, int]] = []
        #: Query time of the last take_arrivals call (None before any).
        self._taken_through: int | None = None
        #: Horizon of the last forget_before call (None before any).
        self._horizon: int | None = None

    # ------------------------------------------------------------------
    # assertion
    # ------------------------------------------------------------------

    def assert_event(
        self, functor: str, args: tuple, time: int, arrival: int | None = None
    ) -> None:
        """Record an event occurrence (arrival defaults to occurrence time)."""
        occurrence = EventOccurrence(
            functor, tuple(args), time, time if arrival is None else arrival
        )
        occurrences = self._events.get(functor)
        if occurrences is None:
            self._events[functor] = [occurrence]
        elif occurrences[-1].time > time:
            # Late within its type: insert after its timepoint's occurrences.
            insort_right(occurrences, occurrence, key=_occurrence_time)
        else:
            occurrences.append(occurrence)
        self._event_count += 1
        self._pending_events.append(occurrence)

    def assert_value(
        self,
        functor: str,
        args: tuple,
        value: object,
        time: int,
        arrival: int | None = None,
    ) -> None:
        """Record a valued-fluent assignment taking effect at ``time``."""
        args = tuple(args)
        arrival = time if arrival is None else arrival
        instances = self._valued[functor]
        entries = instances.get(args)
        if entries is None:
            entries = instances[args] = []
        entries.append((time, arrival, value))
        # Keep sorted by occurrence time; assertions are near-ordered, so an
        # insertion-sort step is cheap.
        index = len(entries) - 1
        while index > 0 and entries[index - 1][0] > entries[index][0]:
            entries[index - 1], entries[index] = entries[index], entries[index - 1]
            index -= 1
        self._pending_values.append((functor, args, time, arrival))

    # ------------------------------------------------------------------
    # queries (window-relative)
    # ------------------------------------------------------------------

    def events_in_window(
        self, functor: str, window_start: int, query_time: int
    ) -> list[EventOccurrence]:
        """Occurrences of one event type visible at the query time.

        Visible means: occurred in ``(Qi - omega, Qi]`` *and* arrived by
        ``Qi``.  Delayed events that occurred in a previous slide but only
        just arrived are therefore included — Figure 5's recovery.  They
        come sorted by time, in assertion order within a timepoint.
        """
        occurrences = self._events.get(functor, [])
        low = bisect_right(occurrences, window_start, key=_occurrence_time)
        high = bisect_right(occurrences, query_time, lo=low, key=_occurrence_time)
        return [
            occurrence
            for occurrence in occurrences[low:high]
            if occurrence.arrival <= query_time
        ]

    def arrived_at(self, functor: str, time: int, query_time: int) -> list[tuple]:
        """Arguments of the occurrences of one event type at exactly
        ``time`` that have arrived by the query time."""
        occurrences = self._events.get(functor, [])
        low = bisect_left(occurrences, time, key=_occurrence_time)
        high = bisect_right(occurrences, time, lo=low, key=_occurrence_time)
        return [
            occurrence.args
            for occurrence in occurrences[low:high]
            if occurrence.arrival <= query_time
        ]

    def event_functors(self) -> list[str]:
        """All event types ever asserted."""
        return list(self._events)

    def value_at(
        self, functor: str, args: tuple, timepoint: int, query_time: int
    ) -> object | None:
        """Value of a valued fluent at a timepoint (``None`` if unset).

        Only assertions that have arrived by the query time are considered.
        """
        entries = self._valued.get(functor, {}).get(tuple(args))
        if not entries:
            return None
        # Entries are sorted by occurrence time; scan backwards from the
        # insertion point for the latest arrived assignment <= timepoint.
        index = bisect_right(entries, timepoint, key=_entry_time) - 1
        while index >= 0:
            _, arrival, value = entries[index]
            if arrival <= query_time:
                return value
            index -= 1
        return None

    def valued_instances(self, functor: str) -> list[tuple]:
        """Known argument tuples of a valued fluent."""
        return list(self._valued.get(functor, ()))

    # ------------------------------------------------------------------
    # arrivals (for the incremental engine)
    # ------------------------------------------------------------------

    def take_arrivals(
        self, query_time: int
    ) -> tuple[list[EventOccurrence], list[tuple[str, tuple, int]]]:
        """What became visible by ``query_time`` since the previous call.

        Returns ``(events, values)``: the event occurrences now visible
        (occurred *and* arrived by the query time) and the valued-fluent
        changes now visible as ``(functor, args, time)``.  Everything else
        stays pending for a later call.  A query time below the previous
        call's rewinds: every assertion not visible at it is pending again.
        """
        if self._taken_through is not None and query_time < self._taken_through:
            self._pending_events = [
                occurrence
                for occurrences in self._events.values()
                for occurrence in occurrences
                if max(occurrence.time, occurrence.arrival) > query_time
            ]
            self._pending_values = [
                (functor, args, time, arrival)
                for functor, instances in self._valued.items()
                for args, entries in instances.items()
                for time, arrival, _ in entries
                if arrival > query_time
            ]
        self._taken_through = query_time
        events: list[EventOccurrence] = []
        waiting_events: list[EventOccurrence] = []
        for occurrence in self._pending_events:
            if occurrence.time <= query_time and occurrence.arrival <= query_time:
                events.append(occurrence)
            else:
                waiting_events.append(occurrence)
        values: list[tuple[str, tuple, int]] = []
        waiting_values: list[tuple[str, tuple, int, int]] = []
        for change in self._pending_values:
            if change[3] <= query_time:
                values.append(change[:3])
            else:
                waiting_values.append(change)
        self._pending_events = waiting_events
        self._pending_values = waiting_values
        return events, values

    def visible_count(self) -> int:
        """Stored occurrences that were visible at the last
        :meth:`take_arrivals` (after :meth:`forget_before` of its window)."""
        horizon = self._horizon
        waiting = sum(
            1
            for occurrence in self._pending_events
            if horizon is None or occurrence.time > horizon
        )
        return self._event_count - waiting

    # ------------------------------------------------------------------
    # forgetting
    # ------------------------------------------------------------------

    def forget_before(self, horizon: int) -> int:
        """Drop events at or before the horizon; returns how many were kept.

        Valued fluents keep their latest pre-horizon assignment per instance
        (the value persists into the window); earlier ones are dropped.
        When that kept *anchor* has not been seen to arrive, dropping the
        earlier assignments can change a visible value, so the instance is
        reported as changed from the horizon by the next
        :meth:`take_arrivals`.
        """
        self._horizon = horizon
        for functor in list(self._events):
            occurrences = self._events[functor]
            cut = bisect_right(occurrences, horizon, key=_occurrence_time)
            self._event_count -= cut
            if cut == len(occurrences):
                del self._events[functor]
            else:
                del occurrences[:cut]
        seen = self._taken_through
        for functor, instances in self._valued.items():
            for args, entries in instances.items():
                cut = bisect_right(entries, horizon, key=_entry_time) - 1
                if cut > 0:
                    del entries[:cut]
                    if seen is None or entries[0][1] > seen:
                        self._pending_values.append(
                            (functor, args, horizon, horizon)
                        )
        return self._event_count

    def event_count(self) -> int:
        """Total stored event occurrences."""
        return self._event_count

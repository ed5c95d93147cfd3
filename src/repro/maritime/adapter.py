"""Bridge from the trajectory detection component into RTEC.

"The critical Movement Events (ME) computed by the trajectory detection
component are transmitted to the Complex Event Recognition module" together
with "the coordinates (Lon, Lat) of the vessel" at the time of ME detection
(Section 4.1).  The adapter asserts each ME into the engine's working memory
under the paper's ME vocabulary — ``gap``, ``slowMotion``, ``speedChange``,
``turn``, ``stop_start``/``stop_end`` (bracketing the durative ``stopped``)
— and records the ``coord`` fluent assignment that accompanies it.

The ``arrival_time`` of an assertion is the query time of the tracking slide
that emitted the ME, so events detected late (a stop is only recognized after
m reports) reach RTEC exactly as delayed events, as in Figure 5.
"""

from repro.rtec.working_memory import WorkingMemory
from repro.tracking.types import MovementEvent, MovementEventType

#: ME vocabulary: tracker event kind -> RTEC event functor.
EVENT_FUNCTORS = {
    MovementEventType.GAP_START: "gap",
    MovementEventType.GAP_END: "gap_end",
    MovementEventType.SLOW_MOTION: "slowMotion",
    MovementEventType.SPEED_CHANGE: "speedChange",
    MovementEventType.TURN: "turn",
    MovementEventType.SMOOTH_TURN: "turn",
    MovementEventType.STOP_START: "stop_start",
    MovementEventType.STOP_END: "stop_end",
}


class MovementEventAdapter:
    """Assert critical MEs into an RTEC working memory."""

    def __init__(self, memory: WorkingMemory):
        self.memory = memory
        self.events_ingested = 0

    def ingest_events(
        self, events: list[MovementEvent], arrival_time: int | None = None
    ) -> int:
        """Assert movement events; returns how many MEs were asserted.

        Pause and off-course events are not critical MEs and are skipped.
        """
        count = 0
        for event in events:
            functor = EVENT_FUNCTORS.get(event.event_type)
            if functor is None:
                continue
            self.memory.assert_event(
                functor, (event.mmsi,), event.timestamp, arrival=arrival_time
            )
            self.memory.assert_value(
                "coord",
                (event.mmsi,),
                (event.lon, event.lat),
                event.timestamp,
                arrival=arrival_time,
            )
            count += 1
        self.events_ingested += count
        return count

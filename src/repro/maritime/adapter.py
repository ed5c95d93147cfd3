"""Bridge from the trajectory detection component into RTEC.

"The critical Movement Events (ME) computed by the trajectory detection
component are transmitted to the Complex Event Recognition module" together
with "the coordinates (Lon, Lat) of the vessel" at the time of ME detection
(Section 4.1).  The adapter asserts each ME into the engine's working memory
under the paper's ME vocabulary — ``gap``, ``slowMotion``, ``speedChange``,
``turn``, ``stop_start``/``stop_end`` (bracketing the durative ``stopped``)
— and records the ``coord`` fluent assignment that accompanies it.

Only the MEs whose functor recognition reads are stored
(:meth:`~repro.rtec.engine.RTEC.read_events`); the rest are counted as
``recognition.unread_events``.  Every ``coord`` assignment is stored: a
rule reads the latest one at or before its time, whichever ME asserted it.

The ``arrival_time`` of an assertion is the query time of the tracking slide
that emitted the ME, so events detected late (a stop is only recognized after
m reports) reach RTEC exactly as delayed events, as in Figure 5.
"""

from repro import obs
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
    """Assert critical MEs into an RTEC working memory.

    ``read`` names the event functors to store; ``None`` stores every ME.
    :attr:`events_ingested` counts the MEs stored.
    """

    def __init__(self, memory: WorkingMemory, read: frozenset[str] | None = None):
        self.memory = memory
        self.read = read
        self.events_ingested = 0

    def ingest_events(
        self, events: list[MovementEvent], arrival_time: int | None = None
    ) -> int:
        """Assert movement events; returns how many critical MEs it took,
        stored (``recognition.ingested_events``) or not
        (``recognition.unread_events``).

        Pause and off-course events are not critical MEs and are skipped.
        """
        memory = self.memory
        read = self.read
        count = unread = 0
        for event in events:
            functor = EVENT_FUNCTORS.get(event.event_type)
            if functor is None:
                continue
            if read is None or functor in read:
                memory.assert_event(
                    functor, (event.mmsi,), event.timestamp, arrival=arrival_time
                )
                count += 1
            else:
                unread += 1
            memory.assert_value(
                "coord",
                (event.mmsi,),
                (event.lon, event.lat),
                event.timestamp,
                arrival=arrival_time,
            )
        self.events_ingested += count
        obs.count("recognition.ingested_events", count)
        if unread:
            obs.count("recognition.unread_events", unread)
        return count + unread

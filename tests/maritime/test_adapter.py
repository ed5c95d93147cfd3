"""Tests for the ME -> RTEC adapter."""

from repro import obs
from repro.maritime.adapter import EVENT_FUNCTORS, MovementEventAdapter
from repro.rtec.working_memory import WorkingMemory
from repro.tracking.types import MovementEvent, MovementEventType


def make_event(kind, mmsi=1, timestamp=100, lon=24.0, lat=38.0):
    return MovementEvent(kind, mmsi, lon, lat, timestamp)


class TestIngestEvents:
    def test_critical_me_asserted_with_coord(self):
        memory = WorkingMemory()
        adapter = MovementEventAdapter(memory)
        count = adapter.ingest_events([make_event(MovementEventType.GAP_START)])
        assert count == 1
        occurrences = memory.events_in_window("gap", 0, 1000)
        assert [(o.args, o.time) for o in occurrences] == [((1,), 100)]
        assert memory.value_at("coord", (1,), 100, 1000) == (24.0, 38.0)

    def test_pause_and_off_course_skipped(self):
        memory = WorkingMemory()
        adapter = MovementEventAdapter(memory)
        count = adapter.ingest_events(
            [
                make_event(MovementEventType.PAUSE),
                make_event(MovementEventType.OFF_COURSE),
            ]
        )
        assert count == 0
        assert memory.event_count() == 0

    def test_smooth_turn_maps_to_turn(self):
        memory = WorkingMemory()
        MovementEventAdapter(memory).ingest_events(
            [make_event(MovementEventType.SMOOTH_TURN)]
        )
        assert len(memory.events_in_window("turn", 0, 1000)) == 1

    def test_arrival_time_applied(self):
        memory = WorkingMemory()
        MovementEventAdapter(memory).ingest_events(
            [make_event(MovementEventType.TURN, timestamp=100)], arrival_time=500
        )
        # Invisible before arrival, visible after.
        assert memory.events_in_window("turn", 0, 400) == []
        assert len(memory.events_in_window("turn", 0, 500)) == 1

    def test_vocabulary_covers_critical_types(self):
        critical = {
            MovementEventType.GAP_START,
            MovementEventType.GAP_END,
            MovementEventType.SLOW_MOTION,
            MovementEventType.SPEED_CHANGE,
            MovementEventType.TURN,
            MovementEventType.SMOOTH_TURN,
            MovementEventType.STOP_START,
            MovementEventType.STOP_END,
        }
        assert set(EVENT_FUNCTORS) == critical

    def test_ingested_counter(self):
        adapter = MovementEventAdapter(WorkingMemory())
        with obs.activate(obs.MetricsRegistry()) as registry:
            adapter.ingest_events([make_event(MovementEventType.TURN)])
            adapter.ingest_events([make_event(MovementEventType.GAP_START)])
        assert registry.counter("recognition.ingested_events").value == 2

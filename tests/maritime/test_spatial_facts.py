"""Tests for the spatial-facts reference of Figure 11(b)."""

from repro.maritime.config import MaritimeConfig
from repro.rtec.working_memory import WorkingMemory
from repro.simulator.world import AreaKind
from repro.tracking.types import MovementEvent, MovementEventType
from tests.maritime.spatial_facts import (
    FACT_FORBIDDEN,
    FACT_PROTECTED,
    FACT_SHALLOW,
    FACT_WATCH,
    assert_spatial_facts,
    spatial_facts_for,
)


def make_event(world, kind=MovementEventType.TURN, area_index=0, timestamp=100):
    area = world.areas[area_index]
    lon, lat = area.polygon.centroid
    return MovementEvent(kind, 1, lon, lat, timestamp)


class TestSpatialFactsFor:
    def test_fact_per_category_and_area(self, world):
        protected = world.areas_of_kind(AreaKind.PROTECTED)[0]
        index = world.areas.index(protected)
        event = make_event(world, area_index=index)
        facts = spatial_facts_for(event, world, 3000.0)
        functors = {functor for functor, _, _ in facts}
        # The point is inside a protected area: watch + protected facts.
        assert FACT_WATCH in functors
        assert FACT_PROTECTED in functors
        assert FACT_FORBIDDEN not in functors
        assert FACT_SHALLOW not in functors

    def test_fact_carries_vessel_area_and_timestamp(self, world):
        event = make_event(world, timestamp=123)
        facts = spatial_facts_for(event, world, 3000.0)
        for _functor, args, timestamp in facts:
            assert args[0] == 1
            assert isinstance(args[1], str)
            assert timestamp == 123

    def test_open_sea_event_produces_no_facts(self, world):
        event = MovementEvent(MovementEventType.TURN, 1, 23.05, 36.1, 100)
        assert spatial_facts_for(event, world, 1000.0) == []


class TestAssertSpatialFacts:
    def test_facts_asserted_into_memory(self, world):
        memory = WorkingMemory()
        event = make_event(world)
        count = assert_spatial_facts(memory, [event], world, 3000.0)
        assert count >= 2  # watch + the area's own category
        assert len(memory.events_in_window(FACT_WATCH, 0, 1000)) >= 1

    def test_non_critical_events_skipped(self, world):
        memory = WorkingMemory()
        event = make_event(world, kind=MovementEventType.PAUSE)
        count = assert_spatial_facts(memory, [event], world, 3000.0)
        assert count == 0

    def test_fact_count_grows_stream_size(self, world):
        # The Figure 11(b) setting: the input stream grows by roughly one
        # spatial fact per ME near an area.
        memory = WorkingMemory()
        events = [make_event(world, area_index=i) for i in range(10)]
        count = assert_spatial_facts(memory, events, world, 3000.0)
        assert count >= 10


class TestConfigDefaults:
    def test_maritime_config_defaults(self):
        config = MaritimeConfig()
        assert config.close_threshold_meters == 3000.0
        assert config.suspicious_other_vessels == 3

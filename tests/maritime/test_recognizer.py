"""Tests for the assembled MaritimeRecognizer facade."""

import pytest

from repro.geo.polygon import GeoPolygon
from repro.maritime import MaritimeConfig, MaritimeRecognizer
from repro.simulator.vessel import VesselSpec, VesselType
from repro.simulator.world import Area, AreaKind, BoundingBox, Port, WorldModel
from repro.tracking.types import MovementEvent, MovementEventType
from tests.maritime.spatial_facts import SpatialFactsRecognizer

CENTER = (24.0, 38.0)


def tiny_world():
    return WorldModel(
        BoundingBox(22.0, 36.0, 26.0, 40.0),
        ports=[Port("p", 23.0, 39.0, GeoPolygon.rectangle("p", 23.0, 39.0, 2000, 2000))],
        areas=[
            Area(
                "park",
                AreaKind.PROTECTED,
                GeoPolygon.rectangle("park", *CENTER, 4000, 4000),
            )
        ],
    )


SPECS = {7: VesselSpec(7, VesselType.TANKER, 10.0, False)}


@pytest.fixture()
def recognizer():
    return MaritimeRecognizer(tiny_world(), SPECS, window_seconds=10_000)


class TestFacade:
    def test_step_records_wall_clock(self, recognizer):
        recognizer.step(100)
        assert recognizer.last_step_seconds > 0.0

    def test_alerts_empty_before_any_step(self):
        fresh = MaritimeRecognizer(tiny_world(), SPECS, window_seconds=100)
        assert fresh.alerts() == []

    def test_alerts_default_to_last_result(self, recognizer):
        recognizer.ingest(
            [MovementEvent(MovementEventType.GAP_START, 7, *CENTER, 50)],
            arrival_time=100,
        )
        recognizer.step(100)
        alerts = recognizer.alerts()  # no explicit result passed
        assert [a.kind for a in alerts] == ["illegalShipping"]

    def test_alerts_sorted_by_time(self, recognizer):
        recognizer.ingest(
            [
                MovementEvent(MovementEventType.GAP_START, 7, *CENTER, 300),
                MovementEvent(MovementEventType.GAP_START, 7, *CENTER, 100),
            ],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        alerts = recognizer.alerts(result)
        assert [a.since for a in alerts] == [100, 300]

    def test_ongoing_flag(self, recognizer):
        from repro.maritime.recognizer import Alert

        assert Alert("suspicious", "park", 10).is_ongoing
        assert not Alert("suspicious", "park", 10, until=20).is_ongoing

    def test_ingest_returns_me_count(self, recognizer):
        count = recognizer.ingest(
            [
                MovementEvent(MovementEventType.TURN, 7, *CENTER, 10),
                MovementEvent(MovementEventType.PAUSE, 7, *CENTER, 20),
            ],
            arrival_time=100,
        )
        assert count == 1  # pauses are not critical MEs

    def test_spatial_facts_count_includes_facts(self):
        recognizer = SpatialFactsRecognizer(tiny_world(), SPECS, window_seconds=1000)
        count = recognizer.ingest(
            [MovementEvent(MovementEventType.TURN, 7, *CENTER, 10)],
            arrival_time=100,
        )
        # One ME plus at least the watch + protected facts for the area.
        assert count >= 3

    def test_custom_watch_areas_restrict_suspicious(self):
        world = tiny_world()
        recognizer = MaritimeRecognizer(
            world,
            {i: VesselSpec(i, VesselType.CARGO, 8.0, False) for i in range(1, 6)},
            window_seconds=10_000,
            config=MaritimeConfig(),
            watch_areas=[],  # officials watch nothing
        )
        events = [
            MovementEvent(MovementEventType.STOP_START, i, *CENTER, 100 + i)
            for i in range(1, 6)
        ]
        recognizer.ingest(events, arrival_time=1000)
        result = recognizer.step(1000)
        assert result.fluents.get("suspicious", {}) == {}

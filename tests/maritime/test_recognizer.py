"""Tests for the assembled MaritimeRecognizer facade."""

import pytest

from repro import obs
from repro.geo.polygon import GeoPolygon
from repro.maritime import MaritimeConfig, MaritimeRecognizer
from repro.maritime.adapter import EVENT_FUNCTORS
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.simulator.vessel import VesselSpec, VesselType
from repro.simulator.world import Area, AreaKind, BoundingBox, Port, WorldModel
from repro.tracking.types import MovementEvent, MovementEventType
from tests.maritime.spatial_facts import SpatialFactsRecognizer
from tests.parity import replay_transcript

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


class TestVesselScope:
    def test_reports_only_its_two_ces_each_with_an_area_name(
        self, world, small_fleet
    ):
        # The vessel scope declares no output fluent; before that empty
        # declaration counted, every internal fluent (``stopped`` keyed by
        # MMSI) leaked into the feed as an alert.
        system = SurveillanceSystem(
            world, small_fleet["specs"], SystemConfig(ce_scope="vessel")
        )
        transcript = replay_transcript(system, small_fleet["stream"])
        alerts = [
            alert
            for report in [*transcript["slides"], transcript["finalize"]]
            for alert in report["alerts"]
        ]
        assert alerts
        assert {a.kind for a in alerts} <= {"illegalShipping", "dangerousShipping"}
        assert all(isinstance(a.area, str) for a in alerts)
        assert transcript["alerts"] == []

    def test_evaluates_and_stores_only_what_its_two_ces_read(self):
        # A slide carrying every critical ME kind: the vessel scope keeps
        # caches for its two event rules alone, so no cache of an
        # unevaluated functor (``stopped``) collects triggers it never
        # runs, and it stores only the gap and slowMotion occurrences
        # those rules read, with every ME's coord.
        recognizer = MaritimeRecognizer(
            tiny_world(), SPECS, window_seconds=10_000, ce_scope="vessel"
        )
        kinds = sorted(EVENT_FUNCTORS, key=lambda kind: kind.value)
        events = [
            MovementEvent(kind, 7, CENTER[0], CENTER[1] + 0.001 * index, 100 + index)
            for index, kind in enumerate(kinds)
        ]
        with obs.activate(obs.MetricsRegistry()) as registry:
            recognizer.ingest(events, arrival_time=500)
            recognizer.step(500)
            recognizer.step(600)
        counters = registry.snapshot()["counters"]
        assert counters["recognition.ingested_events"] == 2
        assert (
            counters["recognition.ingested_events"]
            + counters["recognition.unread_events"]
            == len(events)
        )
        memory = recognizer.engine.working_memory
        assert sorted(memory.event_functors()) == ["gap", "slowMotion"]
        for event in events:
            assert memory.value_at("coord", (7,), event.timestamp, 500) == (
                event.lon, event.lat,
            )
        fold = recognizer.engine._fold
        caches = [
            cache
            for table in (fold.initiation, fold.termination, fold.happening)
            for rules in table.values()
            for cache in rules
        ]
        assert sorted(cache.rule.head.event for cache in caches) == [
            "dangerousShipping", "illegalShipping",
        ]
        assert all(not cache.added and not cache.removed for cache in caches)

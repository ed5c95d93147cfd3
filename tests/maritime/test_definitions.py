"""CE-definition tests over hand-built movement events.

Each scenario of Section 4.1 is exercised with a minimal synthetic world so
that the expected recognitions (and non-recognitions) are unambiguous.
"""

import pytest

from repro.geo.polygon import GeoPolygon
from repro.maritime import MaritimeConfig, MaritimeRecognizer
from repro.simulator.vessel import VesselSpec, VesselType
from repro.simulator.world import Area, AreaKind, BoundingBox, Port, WorldModel
from repro.tracking.types import MovementEvent, MovementEventType
from tests.maritime.spatial_facts import SpatialFactsRecognizer

PROTECTED_CENTER = (24.0, 38.0)
FORBIDDEN_CENTER = (25.0, 38.0)
SHALLOW_CENTER = (26.0, 38.0)
OPEN_SEA = (23.0, 36.5)


def make_world():
    areas = [
        Area(
            "park",
            AreaKind.PROTECTED,
            GeoPolygon.rectangle("park", *PROTECTED_CENTER, 4000, 4000),
        ),
        Area(
            "nofish",
            AreaKind.FORBIDDEN_FISHING,
            GeoPolygon.rectangle("nofish", *FORBIDDEN_CENTER, 4000, 4000),
        ),
        Area(
            "shoal",
            AreaKind.SHALLOW,
            GeoPolygon.rectangle("shoal", *SHALLOW_CENTER, 4000, 4000),
            depth_meters=6.0,
        ),
    ]
    port = Port("port", 23.0, 38.5, GeoPolygon.rectangle("p", 23.0, 38.5, 3000, 3000))
    return WorldModel(BoundingBox(22.0, 36.0, 27.0, 39.5), [port], areas)


SPECS = {
    1: VesselSpec(1, VesselType.CARGO, 8.0, False),
    2: VesselSpec(2, VesselType.CARGO, 8.0, False),
    3: VesselSpec(3, VesselType.CARGO, 8.0, False),
    4: VesselSpec(4, VesselType.CARGO, 8.0, False),
    5: VesselSpec(5, VesselType.CARGO, 8.0, False),
    10: VesselSpec(10, VesselType.FISHING, 3.0, True),
    11: VesselSpec(11, VesselType.TANKER, 10.0, False),  # deeper than shoal
    12: VesselSpec(12, VesselType.FISHING, 3.0, True),
}


def event(kind, mmsi, timestamp, where):
    return MovementEvent(kind, mmsi, where[0], where[1], timestamp)


@pytest.fixture(
    params=[MaritimeRecognizer, SpatialFactsRecognizer],
    ids=["spatial-reasoning", "spatial-facts"],
)
def recognizer(request):
    """Both operation modes must recognize the same CEs (Figure 11)."""
    return request.param(
        make_world(),
        SPECS,
        window_seconds=10_000,
        config=MaritimeConfig(close_threshold_meters=3000.0),
    )


class TestSuspicious:
    def test_four_stopped_vessels_make_area_suspicious(self, recognizer):
        events = []
        for index, mmsi in enumerate([1, 2, 3, 4]):
            events.append(
                event(MovementEventType.STOP_START, mmsi, 100 + index * 50,
                      PROTECTED_CENTER)
            )
        recognizer.ingest(events, arrival_time=1000)
        result = recognizer.step(1000)
        intervals = result.intervals("suspicious", ("park",))
        assert len(intervals) == 1
        # Initiated at the fourth vessel's stop start.
        assert intervals[0][0] == 250

    def test_three_vessels_are_not_enough(self, recognizer):
        events = [
            event(MovementEventType.STOP_START, mmsi, 100 + i * 50, PROTECTED_CENTER)
            for i, mmsi in enumerate([1, 2, 3])
        ]
        recognizer.ingest(events, arrival_time=1000)
        result = recognizer.step(1000)
        assert result.intervals("suspicious", ("park",)) == []

    def test_terminated_when_vessels_leave(self, recognizer):
        events = [
            event(MovementEventType.STOP_START, mmsi, 100 + i * 50, PROTECTED_CENTER)
            for i, mmsi in enumerate([1, 2, 3, 4])
        ]
        # Two vessels depart: 3 remain at t=500 -> suspicious ends there.
        events.append(event(MovementEventType.STOP_END, 1, 500, PROTECTED_CENTER))
        recognizer.ingest(events, arrival_time=1000)
        result = recognizer.step(1000)
        assert result.intervals("suspicious", ("park",)) == [(250, 500)]

    def test_stops_far_from_any_area_ignored(self, recognizer):
        events = [
            event(MovementEventType.STOP_START, mmsi, 100 + i * 50, OPEN_SEA)
            for i, mmsi in enumerate([1, 2, 3, 4, 5])
        ]
        recognizer.ingest(events, arrival_time=1000)
        result = recognizer.step(1000)
        assert result.fluents.get("suspicious", {}) == {}


class TestIllegalFishing:
    def test_fishing_vessel_slow_motion_in_forbidden_area(self, recognizer):
        recognizer.ingest(
            [event(MovementEventType.SLOW_MOTION, 10, 200, FORBIDDEN_CENTER)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        intervals = result.intervals("illegalFishing", ("nofish",))
        assert len(intervals) == 1
        assert intervals[0][0] == 200

    def test_fishing_vessel_stopping_in_forbidden_area(self, recognizer):
        recognizer.ingest(
            [event(MovementEventType.STOP_START, 10, 200, FORBIDDEN_CENTER)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert len(result.intervals("illegalFishing", ("nofish",))) == 1

    def test_non_fishing_vessel_does_not_trigger(self, recognizer):
        recognizer.ingest(
            [event(MovementEventType.SLOW_MOTION, 1, 200, FORBIDDEN_CENTER)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.intervals("illegalFishing", ("nofish",)) == []

    def test_fishing_outside_forbidden_area_allowed(self, recognizer):
        recognizer.ingest(
            [event(MovementEventType.SLOW_MOTION, 10, 200, OPEN_SEA)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.fluents.get("illegalFishing", {}) == {}

    def test_terminated_when_last_fisher_leaves(self, recognizer):
        events = [
            event(MovementEventType.STOP_START, 10, 200, FORBIDDEN_CENTER),
            event(MovementEventType.STOP_END, 10, 600, FORBIDDEN_CENTER),
        ]
        recognizer.ingest(events, arrival_time=1000)
        result = recognizer.step(1000)
        assert result.intervals("illegalFishing", ("nofish",)) == [(200, 600)]

    def test_speedup_terminates_when_no_fisher_stopped(self, recognizer):
        events = [
            event(MovementEventType.SLOW_MOTION, 10, 200, FORBIDDEN_CENTER),
            event(MovementEventType.SPEED_CHANGE, 10, 500, FORBIDDEN_CENTER),
        ]
        recognizer.ingest(events, arrival_time=1000)
        result = recognizer.step(1000)
        assert result.intervals("illegalFishing", ("nofish",)) == [(200, 500)]


class TestIllegalShipping:
    def test_gap_near_protected_area(self, recognizer):
        recognizer.ingest(
            [event(MovementEventType.GAP_START, 11, 300, PROTECTED_CENTER)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.occurrences("illegalShipping") == [(("park", 11), 300)]

    def test_gap_in_open_sea_ignored(self, recognizer):
        recognizer.ingest(
            [event(MovementEventType.GAP_START, 11, 300, OPEN_SEA)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.occurrences("illegalShipping") == []

    def test_gap_near_forbidden_fishing_area_is_not_illegal_shipping(
        self, recognizer
    ):
        # Rule (5) is restricted to protected areas.
        recognizer.ingest(
            [event(MovementEventType.GAP_START, 11, 300, FORBIDDEN_CENTER)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.occurrences("illegalShipping") == []


class TestDangerousShipping:
    def test_deep_draft_slow_in_shallow_water(self, recognizer):
        recognizer.ingest(
            [event(MovementEventType.SLOW_MOTION, 11, 400, SHALLOW_CENTER)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.occurrences("dangerousShipping") == [(("shoal", 11), 400)]

    def test_shallow_draft_vessel_is_safe(self, recognizer):
        # Vessel 12 draws 3 m over a 6 m shoal: not dangerous.
        recognizer.ingest(
            [event(MovementEventType.SLOW_MOTION, 12, 400, SHALLOW_CENTER)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.occurrences("dangerousShipping") == []

    def test_slow_motion_outside_shallow_area_safe(self, recognizer):
        recognizer.ingest(
            [event(MovementEventType.SLOW_MOTION, 11, 400, OPEN_SEA)],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.occurrences("dangerousShipping") == []


class TestAlerts:
    def test_alert_records(self, recognizer):
        recognizer.ingest(
            [
                event(MovementEventType.GAP_START, 11, 300, PROTECTED_CENTER),
                event(MovementEventType.SLOW_MOTION, 10, 200, FORBIDDEN_CENTER),
            ],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        alerts = recognizer.alerts(result)
        kinds = {alert.kind for alert in alerts}
        assert kinds == {"illegalShipping", "illegalFishing"}
        shipping = next(a for a in alerts if a.kind == "illegalShipping")
        assert shipping.mmsi == 11
        assert shipping.area == "park"
        fishing = next(a for a in alerts if a.kind == "illegalFishing")
        assert fishing.is_ongoing

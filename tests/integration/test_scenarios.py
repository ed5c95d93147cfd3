"""End-to-end scenario tests: simulated behaviours must yield their CEs.

Each scenario drives the full pipeline — simulator -> tracker -> compressor
-> RTEC — and asserts both that the targeted complex event is recognized and
that unrelated CEs stay quiet.
"""

import pytest

from repro.ais.stream import StreamReplayer, TimedArrival
from repro.maritime import MaritimeRecognizer
from repro.simulator import FleetSimulator
from repro.tracking import ColumnarTracker
from tests.maritime.spatial_facts import SpatialFactsRecognizer

DURATION = 6 * 3600
SLIDE = 1800


def run_pipeline(world, fleet, spatial_facts=False):
    specs = {vessel.mmsi: vessel.spec for vessel in fleet}
    simulator_stream = []
    for vessel in fleet:
        simulator_stream.extend(vessel.positions)
    simulator_stream.sort(key=lambda p: p.timestamp)
    tracker = ColumnarTracker()
    recognizer_class = SpatialFactsRecognizer if spatial_facts else MaritimeRecognizer
    recognizer = recognizer_class(world, specs, window_seconds=DURATION)
    arrivals = [TimedArrival(p.timestamp, p) for p in simulator_stream]
    query_time = 0
    for query_time, batch in StreamReplayer(arrivals, SLIDE).batches():
        recognizer.ingest(tracker.process_batch(batch), arrival_time=query_time)
        recognizer.step(query_time)
    recognizer.ingest(tracker.finalize(), arrival_time=query_time)
    result = recognizer.step(query_time)
    return recognizer, result


@pytest.fixture(params=[False, True], ids=["spatial-reasoning", "spatial-facts"])
def spatial_facts(request):
    return request.param


class TestSuspiciousScenario:
    def test_rendezvous_recognized(self, world, spatial_facts):
        simulator = FleetSimulator(world, seed=21, duration_seconds=DURATION)
        fleet = simulator.build_scenario_suspicious(5)
        recognizer, result = run_pipeline(world, fleet, spatial_facts)
        alerts = [a for a in recognizer.alerts(result) if a.kind == "suspicious"]
        assert alerts, "five loiterers at one rendezvous must be suspicious"

    def test_two_vessels_not_suspicious(self, world):
        simulator = FleetSimulator(world, seed=21, duration_seconds=DURATION)
        fleet = simulator.build_scenario_suspicious(2)
        recognizer, result = run_pipeline(world, fleet)
        assert [a for a in recognizer.alerts(result) if a.kind == "suspicious"] == []


class TestIllegalShippingScenario:
    def test_transponder_silence_in_protected_area(self, world, spatial_facts):
        simulator = FleetSimulator(world, seed=22, duration_seconds=DURATION)
        fleet = simulator.build_scenario_illegal_shipping(2)
        recognizer, result = run_pipeline(world, fleet, spatial_facts)
        alerts = [
            a for a in recognizer.alerts(result) if a.kind == "illegalShipping"
        ]
        assert len(alerts) >= 1
        assert all(a.mmsi is not None for a in alerts)


class TestIllegalFishingScenario:
    def test_trawling_in_forbidden_area(self, world, spatial_facts):
        simulator = FleetSimulator(world, seed=23, duration_seconds=DURATION)
        fleet = simulator.build_scenario_illegal_fishing(2)
        recognizer, result = run_pipeline(world, fleet, spatial_facts)
        alerts = [
            a for a in recognizer.alerts(result) if a.kind == "illegalFishing"
        ]
        assert alerts


class TestDangerousShippingScenario:
    def test_deep_draft_in_shallow_water(self, world, spatial_facts):
        simulator = FleetSimulator(world, seed=24, duration_seconds=DURATION)
        fleet = simulator.build_scenario_dangerous_shipping(2)
        recognizer, result = run_pipeline(world, fleet, spatial_facts)
        alerts = [
            a for a in recognizer.alerts(result) if a.kind == "dangerousShipping"
        ]
        assert alerts


class TestQuietFleet:
    def test_compliant_traffic_raises_no_critical_alert_kinds(self, world):
        # Ferries and cargo pass-throughs: no illegal shipping or dangerous
        # shipping should be flagged (their transponders stay on, and they
        # do not creep through shallows).
        simulator = FleetSimulator(world, seed=25, duration_seconds=DURATION)
        fleet = simulator.build_mixed_fleet(10, deviant_fraction=0.0)
        # Only ferries/cargo: drop fishing vessels to keep the fleet benign.
        benign = [v for v in fleet if not v.spec.is_fishing]
        recognizer, result = run_pipeline(world, benign)
        kinds = {a.kind for a in recognizer.alerts(result)}
        assert "illegalShipping" not in kinds
        assert "dangerousShipping" not in kinds
        assert "illegalFishing" not in kinds

"""End-to-end pairwise recognition on the rendezvous fixture.

Two simulated vessels meet offshore, loiter together (one silencing its
transponder mid-stay), then part.  The full pipeline must recognize the
``encounter``/``rendezvous`` intervals and the ``darkShip`` event — and
the sharded runtime must reproduce the single-process alert transcript
byte for byte, because pair facts are routed by episode anchor.
"""

import pytest

from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.runtime import ParallelSurveillanceSystem
from repro.simulator.fleet import FleetSimulator
from repro.tracking import WindowSpec
from tests.parity import replay_transcript

SLIDE_SECONDS = 1800


def _config():
    return SystemConfig(window=WindowSpec.of_hours(2, 0.5), pairwise=True)


@pytest.fixture(scope="module")
def rendezvous_fleet(world):
    simulator = FleetSimulator(world, seed=11, duration_seconds=6 * 3600)
    fleet = simulator.build_scenario_rendezvous()
    return {
        "fleet": fleet,
        "specs": {vessel.mmsi: vessel.spec for vessel in fleet},
        "stream": simulator.positions(fleet),
        "mmsis": tuple(vessel.mmsi for vessel in fleet),
    }


def _replay(system, stream):
    """The parity transcript plus the deduplicated union of alerts.

    ``system.alerts()`` only covers the latest window, which by finalize
    has slid past the meeting — the union over slides is what an operator
    following the feed would have seen.
    """
    with system:
        transcript = replay_transcript(system, stream, SLIDE_SECONDS)
    seen = {
        repr(alert): alert
        for report in [*transcript["slides"], transcript["finalize"]]
        for alert in report["alerts"]
    }
    transcript["alerts"] = [seen[key] for key in sorted(seen)]
    return transcript


@pytest.fixture(scope="module")
def single_process(world, rendezvous_fleet):
    system = SurveillanceSystem(world, rendezvous_fleet["specs"], _config())
    return _replay(system, rendezvous_fleet["stream"])


class TestRendezvousRecognition:
    def test_fixture_produces_the_expected_pairwise_events(
        self, rendezvous_fleet, single_process
    ):
        first, second = rendezvous_fleet["mmsis"]
        alerts = single_process["alerts"]
        by_kind = {}
        for alert in alerts:
            by_kind.setdefault(alert.kind, []).append(alert)

        # The pair comes within range and stays there: an encounter
        # interval for (first, second).
        assert any(
            (a.mmsi, a.mmsi2) == (first, second)
            for a in by_kind.get("encounter", [])
        )
        # They loiter together offshore: a rendezvous over the same pair,
        # terminated when they speed apart (so the interval is closed).
        rendezvous = [
            a
            for a in by_kind.get("rendezvous", [])
            if (a.mmsi, a.mmsi2) == (first, second)
        ]
        assert rendezvous
        assert any(a.until is not None for a in rendezvous)
        # The second vessel silences its transponder mid-loiter, far from
        # any port: a darkShip event naming it — and only it.
        dark = by_kind.get("darkShip", [])
        assert dark
        assert {a.mmsi for a in dark} == {second}
        assert all(a.mmsi2 is None and a.area == "" for a in dark)

    def test_rendezvous_sits_inside_the_encounter(self, single_process):
        alerts = single_process["alerts"]
        meet = min(a.since for a in alerts if a.kind == "rendezvous")
        first_close = min(a.since for a in alerts if a.kind == "encounter")
        assert first_close <= meet

    @pytest.mark.parametrize("shards", [1, 2])
    def test_sharded_transcript_is_byte_identical(
        self, world, rendezvous_fleet, shards, single_process
    ):
        system = ParallelSurveillanceSystem(
            world, rendezvous_fleet["specs"], _config(), shards=shards
        )
        assert _replay(system, rendezvous_fleet["stream"]) == single_process

    def test_pairwise_off_by_default_emits_no_pair_alerts(
        self, world, rendezvous_fleet
    ):
        system = SurveillanceSystem(
            world,
            rendezvous_fleet["specs"],
            SystemConfig(window=WindowSpec.of_hours(2, 0.5)),
        )
        transcript = _replay(system, rendezvous_fleet["stream"])
        pair_kinds = {"encounter", "rendezvous", "cpaRisk", "darkShip"}
        assert all(
            alert.kind not in pair_kinds for alert in transcript["alerts"]
        )

"""Failure injection: the pipeline must survive hostile input."""

from repro.ais import DataScanner
from repro.ais.stream import (
    DelayModel,
    PositionalTuple,
    StreamReplayer,
    TimedArrival,
)
from repro.maritime import MaritimeRecognizer
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.simulator import FleetSimulator
from repro.tracking import ColumnarTracker, WindowSpec
from tests.parity import replay_transcript


class TestCorruptSentences:
    def test_garbage_lines_never_crash(self):
        scanner = DataScanner()
        hostile = [
            "",
            "!",
            "!AIVDM",
            "!AIVDM,1,1,,A,,0*00",
            "!AIVDM,1,1,,A,\x00\x01,0*00",
            "$GPGGA,123519,4807.038,N*47",
            "!AIVDM,9,9,,Z,xxxx,9*FF",
            "!" + "A" * 500,
        ]
        for index, line in enumerate(hostile):
            assert scanner.scan(index, line) is None
        assert scanner.statistics.rejected == len(hostile)


class TestDegenerateStreams:
    def test_single_report_vessels(self, world):
        # Vessels that report exactly once (the paper notes many cargo
        # ships were tracked for hours only) must flow through harmlessly.
        tracker = ColumnarTracker()
        positions = [
            PositionalTuple(mmsi, 23.0 + mmsi * 0.01, 38.0, 100)
            for mmsi in range(1, 50)
        ]
        events = tracker.process_batch(positions)
        assert events == []
        assert tracker.finalize() == []

    def test_empty_slides(self, world, small_fleet):
        system = SurveillanceSystem(
            world, small_fleet["specs"],
            SystemConfig(window=WindowSpec.of_minutes(30, 5)),
        )
        # Slides with no arrivals at all.
        for query_time in range(300, 3600, 300):
            report = system.process_slide([], query_time)
            assert report.raw_positions == 0

    def test_duplicated_stream(self, world, small_fleet):
        # Every tuple delivered twice: duplicates are dropped as stale.
        tracker = ColumnarTracker()
        stream = small_fleet["stream"][:500]
        doubled = [p for position in stream for p in (position, position)]
        tracker.process_batch(doubled)
        assert tracker.statistics.positions_out_of_sequence >= len(stream) / 2

    def test_reversed_stream(self, small_fleet):
        tracker = ColumnarTracker()
        events = tracker.process_batch(list(reversed(small_fleet["stream"][:500])))
        # Only each vessel's first-seen (latest) report contributes state;
        # everything else is out of sequence.  No crash, no bogus events.
        assert tracker.statistics.positions_out_of_sequence > 0
        assert isinstance(events, list)


class TestDelayedStreams:
    def test_recognition_with_heavy_delays(self, world):
        simulator = FleetSimulator(world, seed=41, duration_seconds=4 * 3600)
        fleet = simulator.build_scenario_illegal_shipping(2)
        specs = {vessel.mmsi: vessel.spec for vessel in fleet}
        stream = simulator.positions(fleet)
        delayed = DelayModel(
            delay_probability=0.3, max_delay_seconds=900, seed=5
        ).apply(stream)

        tracker = ColumnarTracker()
        recognizer = MaritimeRecognizer(world, specs, window_seconds=4 * 3600)
        query_time = 0
        for query_time, batch in StreamReplayer(delayed, 1800).batches():
            recognizer.ingest(tracker.process_batch(batch), arrival_time=query_time)
            recognizer.step(query_time)
        recognizer.ingest(tracker.finalize(), arrival_time=query_time)
        result = recognizer.step(query_time)
        kinds = {a.kind for a in recognizer.alerts(result)}
        # The deliberate transponder gap is still recognized despite the
        # random transmission delays.
        assert "illegalShipping" in kinds


class TestWorkerCrashRecovery:
    """Kill a runtime worker mid-slide; the supervisor must restore it
    from its last checkpoint with no lost and no duplicated output."""

    @staticmethod
    def _replay(system, small_fleet, poison_slides=()):
        def poison(index):
            if index in poison_slides:
                system.supervisor.inject_failure(index % system.shards)

        return replay_transcript(
            system, small_fleet["stream"], before_slide=poison
        )

    def test_restart_recovers_without_losing_output(self, world, small_fleet):
        from repro.runtime import ParallelSurveillanceSystem

        config = SystemConfig(window=WindowSpec.of_hours(2, 0.5))
        with ParallelSurveillanceSystem(
            world, small_fleet["specs"], config, shards=2, checkpoint_every=2
        ) as system:
            clean = self._replay(system, small_fleet)
            assert system.restart_count() == 0
        with ParallelSurveillanceSystem(
            world, small_fleet["specs"], config, shards=2, checkpoint_every=2
        ) as system:
            # Kill a worker twice, mid-run, between checkpoints.
            crashed = self._replay(system, small_fleet, poison_slides=(2, 5))
            assert system.restart_count() == 2
        assert crashed == clean

    def test_unrecoverable_after_restart_budget(self, world, small_fleet):
        import pytest

        from repro.runtime import ParallelSurveillanceSystem, WorkerUnrecoverable

        config = SystemConfig(window=WindowSpec.of_hours(2, 0.5))
        with ParallelSurveillanceSystem(
            world, small_fleet["specs"], config, shards=2
        ) as system:
            system.supervisor.max_restarts = 0
            system.supervisor.inject_failure(0)
            arrivals = [
                TimedArrival(p.timestamp, p) for p in small_fleet["stream"]
            ]
            query_time, batch = next(iter(StreamReplayer(arrivals, 1800).batches()))
            with pytest.raises(WorkerUnrecoverable):
                system.process_slide(batch, query_time)


class TestRecognizerRobustness:
    def test_events_for_unknown_vessels(self, world):
        # MEs for vessels missing from the static database must not crash
        # the fishing/shallow predicates.
        from repro.tracking.types import MovementEvent, MovementEventType

        recognizer = MaritimeRecognizer(world, specs={}, window_seconds=3600)
        area = world.areas[0]
        lon, lat = area.polygon.centroid
        recognizer.ingest(
            [
                MovementEvent(MovementEventType.SLOW_MOTION, 999, lon, lat, 100),
                MovementEvent(MovementEventType.GAP_START, 998, lon, lat, 200),
            ],
            arrival_time=1000,
        )
        result = recognizer.step(1000)
        assert result.occurrences("dangerousShipping") == []

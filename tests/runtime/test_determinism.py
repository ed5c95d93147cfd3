"""The runtime's hard invariant: shard count never changes the output.

For every shard count the parallel system must emit byte-identical alert
sets and critical-point streams to the single-process pipeline on the same
seeded fleet — per slide, at finalize, and in the archived trajectories.
"""

import pytest

from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.runtime import ParallelSurveillanceSystem
from repro.tracking import WindowSpec
from tests.parity import replay_transcript


def _config():
    return SystemConfig(window=WindowSpec.of_hours(2, 0.5))


@pytest.fixture(scope="module")
def single_process_transcript(world, small_fleet):
    with SurveillanceSystem(world, small_fleet["specs"], _config()) as system:
        transcript = replay_transcript(system, small_fleet["stream"])
    # The fixture fleet must actually exercise the pipeline, or the
    # equality below is vacuous.
    slides = transcript["slides"]
    assert sum(s["movement_events"] for s in slides) > 0, "no movement events"
    assert sum(s["fresh_critical_points"] for s in slides) > 0, "no critical points"
    assert any(s["alerts"] for s in slides), "no alerts raised"
    return transcript


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_output_identical_to_single_process(
    world, small_fleet, shards, single_process_transcript
):
    with ParallelSurveillanceSystem(
        world, small_fleet["specs"], _config(), shards=shards
    ) as system:
        transcript = replay_transcript(system, small_fleet["stream"])
    assert transcript == single_process_transcript


def test_report_surface_matches_single_process(world, small_fleet):
    """The aggregate compression statistics and phase timings the
    reporting layer reads exist and add up."""
    with ParallelSurveillanceSystem(
        world, small_fleet["specs"], _config(), shards=2
    ) as system:
        arrivals = [
            TimedArrival(p.timestamp, p) for p in small_fleet["stream"]
        ]
        raw_total = 0
        for query_time, batch in StreamReplayer(arrivals, 1800).batches():
            system.process_slide(batch, query_time)
            raw_total += len(batch)
        system.finalize()
        assert system.statistics.raw_positions == raw_total
        assert system.statistics.critical_points > 0
        assert system.timings.slides > 0
        timing = system.last_partition_timing
        assert timing is not None
        assert len(timing.per_partition_seconds) == 2
        assert timing.measured_parallel_seconds is not None
        assert timing.measured_parallel_seconds > 0.0

"""There is one slide path: the sharded system only swaps stage operations.

``SurveillanceSystem`` owns ``process_slide``, ``finalize`` and
``_record_slide_metrics``; ``ParallelSurveillanceSystem`` inherits them
untouched.  ``finalize`` is the same skeleton run once more, so its report
is timed like a slide — without being counted as one.
"""

import pytest

from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.pipeline.metrics import PHASES
from repro.runtime import ParallelSurveillanceSystem, build_system
from repro.tracking import WindowSpec


@pytest.mark.parametrize(
    "name", ["process_slide", "finalize", "_run_slide", "_record_slide_metrics"]
)
def test_sharded_system_inherits_the_skeleton(name):
    assert name not in vars(ParallelSurveillanceSystem)
    assert getattr(ParallelSurveillanceSystem, name) is getattr(
        SurveillanceSystem, name
    )


def test_build_system_is_inline_at_one_shard(world, small_fleet):
    with build_system(world, small_fleet["specs"]) as system:
        assert type(system) is SurveillanceSystem
        assert system.restart_count() == 0
        assert system.terminate_workers() == 0


@pytest.mark.parametrize("shards", [1, 2])
def test_finalize_is_timed_but_not_counted_as_a_slide(
    world, small_fleet, shards
):
    config = SystemConfig(window=WindowSpec.of_hours(2, 0.5))
    arrivals = [TimedArrival(p.timestamp, p) for p in small_fleet["stream"]]
    with build_system(world, small_fleet["specs"], config, shards) as system:
        assert isinstance(system, ParallelSurveillanceSystem) == (shards > 1)
        for query_time, batch in StreamReplayer(arrivals, 1800).batches():
            system.process_slide(batch, query_time)
        slides = system.timings.slides
        seconds = dict(system.timings.seconds)
        final = system.finalize()
        assert set(final.timings) == set(PHASES)
        assert all(final.timings[phase] > 0.0 for phase in PHASES), final.timings
        assert system.timings.slides == slides
        assert system.timings.seconds == seconds


def test_close_is_idempotent_and_leaves_the_database_closable(
    world, small_fleet
):
    system = SurveillanceSystem(world, small_fleet["specs"])
    system.close()
    system.close()
    system.database.close()  # what callers written before close() existed do

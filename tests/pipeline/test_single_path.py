"""There is one slide path: the sharded system only swaps stage operations.

``SurveillanceSystem`` owns ``process_slide``, ``finalize`` and
``_record_slide_metrics``; ``ParallelSurveillanceSystem`` inherits them
untouched.  ``finalize`` is the same skeleton run once more, so its report
is timed like a slide — without being counted as one.

The package also ships one implementation per job: the scalar tracker and
the spatial-facts CE mode are references under ``tests/``, and importing
``repro`` loads neither.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

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


#: Modules that held the second implementation of a job before it moved
#: to ``tests/`` (``tests/tracking/oracle.py``,
#: ``tests/maritime/spatial_facts.py``).
RETIRED_MODULES = ("repro.tracking.tracker", "repro.maritime.spatial_facts")


def test_importing_the_package_loads_no_reference_implementation():
    code = (
        "import repro, sys; "
        f"print(','.join(m for m in {RETIRED_MODULES!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert loaded == ""

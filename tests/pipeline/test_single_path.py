"""There is one slide path, and one process runs all of it.

``SurveillanceSystem`` is the one pipeline class: no worker-process
runtime exists, and importing ``repro`` starts no process machinery.
``finalize`` is the slide skeleton run once more, so its report is timed
like a slide — without being counted as one.

The package also ships one implementation per job: the scalar tracker,
the spatial-facts CE mode, the bit-list AIS codec and the per-sentence
Data Scanner are references under ``tests/``, and importing ``repro``
loads none of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.ais import messages, sixbit
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.pipeline.metrics import PHASES
from repro.tracking import WindowSpec


def test_finalize_is_timed_but_not_counted_as_a_slide(world, small_fleet):
    config = SystemConfig(window=WindowSpec.of_hours(2, 0.5))
    arrivals = [TimedArrival(p.timestamp, p) for p in small_fleet["stream"]]
    with SurveillanceSystem(world, small_fleet["specs"], config) as system:
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
#: to ``tests/``.  The references themselves (``tests/tracking/oracle.py``,
#: ``tests/maritime/spatial_facts.py``, ``tests/ais/oracle.py``) are
#: ``tests`` modules, which ``import repro`` must not load either.
RETIRED_MODULES = ("repro.tracking.tracker", "repro.maritime.spatial_facts")


def _loaded_by_import_repro(wanted: str) -> str:
    """Modules a fresh interpreter has loaded after ``import repro``,
    filtered by the expression ``wanted`` over the module name ``m``."""
    code = (
        "import repro, sys; "
        f"print(','.join(m for m in sys.modules if {wanted}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_importing_the_package_loads_no_reference_implementation():
    assert _loaded_by_import_repro(
        f"m in {RETIRED_MODULES!r} or m.partition('.')[0] == 'tests'"
    ) == ""


def test_importing_the_package_loads_no_worker_process_runtime():
    assert _loaded_by_import_repro(
        "m.partition('.')[0] == 'multiprocessing' or m == 'repro.runtime'"
    ) == ""


@pytest.mark.parametrize(
    "name", ["BitReader", "BitWriter", "bits_to_payload", "payload_to_bits"]
)
def test_the_ais_codec_has_no_bit_list_path(name):
    assert not hasattr(sixbit, name)
    assert not hasattr(messages, name)

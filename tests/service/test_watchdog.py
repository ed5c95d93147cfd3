"""The slide watchdog, wired into a running service.

``tests/resilience/test_watchdog.py`` drives :class:`SlideWatchdog` with a
fake clock; this is the assembled path — ``ServiceConfig(
watchdog_timeout_seconds > 0)`` makes the supervisor build the watchdog,
the batcher beat it around every slide, the ``_watch`` task tick it, and
``_on_stall`` pull the pipeline's ``terminate_workers`` lever — on a
slide that really is wedged.
"""

import asyncio
import json
import threading

from repro import obs
from repro.pipeline.system import SurveillanceSystem
from repro.service import ServiceConfig, ServiceSupervisor
from tests.parity import offline_oracle
from tests.service.test_http import http_request
from tests.service.test_recovery import (
    EPHEMERAL,
    _poll,
    _send_sentences,
    _tap_feed,
)


class WedgedUntilKilled(SurveillanceSystem):
    """Every slide blocks until ``terminate_workers`` has been called —
    the stand-in for a shard worker that stopped answering."""

    def __init__(self, *args):
        super().__init__(*args)
        self.killed = threading.Event()

    def process_slide(self, batch, query_time):
        if not self.killed.wait(timeout=30.0):
            raise RuntimeError("the watchdog never intervened")
        return super().process_slide(batch, query_time)

    def terminate_workers(self) -> int:
        self.killed.set()
        return 1


def test_stalled_slide_is_detected_killed_and_still_published(
    world, small_fleet, soak_sentences
):
    service = ServiceConfig(watchdog_timeout_seconds=0.05, **EPHEMERAL)

    def factory(world, specs, config, shards, checkpoint_dir):
        return WedgedUntilKilled(world, specs, config)

    async def scenario():
        supervisor = ServiceSupervisor(
            world, small_fleet["specs"], service=service,
            system_factory=factory,
        )
        published = _tap_feed(supervisor)
        await supervisor.start()
        ports = supervisor.ports()
        await _send_sentences(ports["ingest"], soak_sentences)
        await _poll(lambda: supervisor.batcher.slides_processed >= 1)
        status, _, body = await http_request(ports["http"], "/healthz")
        assert status == 200
        await supervisor.drain_and_stop()
        return supervisor, published, json.loads(body)

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, health = asyncio.run(scenario())

    counters = registry.snapshot()["counters"]
    assert counters["service.watchdog.stalls"] >= 1
    assert health["watchdog"]["interventions"] >= 1
    assert health["watchdog"]["slides_seen"] >= 1
    assert supervisor.system.killed.is_set()
    # The stall cost time, not output: the wedged slide completed once the
    # lever was pulled and every line matches the offline replay.
    assert supervisor.batcher.pipeline_errors == 0
    assert not supervisor.forced_abort
    assert published == offline_oracle(
        soak_sentences, world, small_fleet["specs"]
    )

"""The slide watchdog, wired into a running service.

``tests/resilience/test_watchdog.py`` drives :class:`SlideWatchdog` with a
fake clock; this is the assembled path — ``ServiceConfig(
watchdog_timeout_seconds > 0)`` makes the supervisor build the watchdog,
the batcher beat it around every slide and the ``_watch`` task tick it —
on a slide that really is wedged.  The watchdog only detects: the test
releases the wedge once ``/healthz`` shows the stall.
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


class WedgedUntilReleased(SurveillanceSystem):
    """The first slide blocks until the test sets ``released``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.released = threading.Event()

    def process_slide(self, batch, query_time):
        if not self.released.wait(timeout=30.0):
            raise RuntimeError("the test never released the slide")
        return super().process_slide(batch, query_time)


def test_stalled_slide_is_detected_counted_and_still_published(
    world, small_fleet, soak_sentences
):
    service = ServiceConfig(watchdog_timeout_seconds=0.05, **EPHEMERAL)

    async def scenario():
        supervisor = ServiceSupervisor(
            world, small_fleet["specs"], service=service,
            system_factory=WedgedUntilReleased,
        )
        published = _tap_feed(supervisor)
        await supervisor.start()
        ports = supervisor.ports()
        await _send_sentences(ports["ingest"], soak_sentences)
        await _poll(lambda: supervisor.watchdog.stalls_detected >= 1)
        status, _, body = await http_request(ports["http"], "/healthz")
        assert status == 200
        supervisor.system.released.set()
        await supervisor.drain_and_stop()
        return supervisor, published, json.loads(body)

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, health = asyncio.run(scenario())

    # Counted once, under one counter, while the slide was still wedged.
    assert health["watchdog"]["slide_running"]
    assert health["watchdog"]["stalls_detected"] == 1
    counters = registry.snapshot()["counters"]
    assert counters["resilience.watchdog.stalls"] == 1
    assert supervisor.watchdog.stalls_detected == 1
    # The stall cost time, not output: every line matches the offline
    # replay once the slide was released.
    assert supervisor.batcher.pipeline_errors == 0
    assert not supervisor.forced_abort
    assert published == offline_oracle(
        soak_sentences, world, small_fleet["specs"]
    )

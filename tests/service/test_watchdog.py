"""The slide watchdog, wired into a running service.

``tests/resilience/test_watchdog.py`` drives :class:`SlideWatchdog` with a
fake clock; this is the assembled path — every supervisor's batcher owns
a watchdog and beats it around every archive on the pipeline thread, and
the supervisor's ``_watch`` task ticks it — on an archive that really is
wedged.  No option turns it on.  The watchdog only detects: the test
releases the wedge once ``/healthz`` shows the stall.  A slide's close
runs on the event loop, where no tick can see it.
"""

import asyncio
import json
import threading

from repro import obs
from repro.pipeline.system import SurveillanceSystem
from repro.resilience.faults import FaultPlan, inject
from repro.service import ServiceConfig, ServiceSupervisor
from repro.service.batcher import SLIDE_STALL_SECONDS
from tests.parity import EPHEMERAL, offline_oracle, poll, send_sentences, tap_feed
from tests.service.test_http import http_request


class WedgedUntilReleased(SurveillanceSystem):
    """The first slide's archive blocks until the test sets ``released``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.released = threading.Event()
        self.slides_closed = 0

    def close_slide(self, query_time):
        self.slides_closed += 1
        return super().close_slide(query_time)

    def archive_touches_mod(self):
        return True  # the wedge stands in for a stuck sqlite call

    def archive(self):
        if not self.released.wait(timeout=30.0):
            raise RuntimeError("the test never released the archive")
        super().archive()


def test_a_supervisor_with_no_service_config_reports_its_watchdog(
    world, small_fleet
):
    supervisor = ServiceSupervisor(world, small_fleet["specs"])
    try:
        watchdog = supervisor.health()["watchdog"]
    finally:
        supervisor.system.database.close()
    assert watchdog["timeout_seconds"] == SLIDE_STALL_SECONDS
    assert watchdog["stalls_detected"] == 0
    assert not watchdog["slide_running"]


def test_stalled_slide_is_detected_counted_and_still_published(
    world, small_fleet, soak_sentences
):
    async def scenario():
        supervisor = ServiceSupervisor(
            world, small_fleet["specs"], service=ServiceConfig(**EPHEMERAL),
            system_factory=WedgedUntilReleased,
        )
        # The stall threshold is a constant far above a real slide; this
        # one watchdog gets a short one instead of a ten-second wedge.
        supervisor.batcher.watchdog.timeout_seconds = 0.05
        published = tap_feed(supervisor)
        await supervisor.start()
        ports = supervisor.ports()
        await send_sentences(ports["ingest"], soak_sentences)
        await poll(lambda: supervisor.batcher.watchdog.stalls_detected >= 1)
        status, _, body = await http_request(ports["http"], "/healthz")
        assert status == 200
        supervisor.system.released.set()
        await supervisor.drain_and_stop()
        return supervisor, published, json.loads(body)

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, health = asyncio.run(scenario())

    assert supervisor.system.slides_closed == supervisor.batcher.slides_processed > 0
    # Counted once, under one counter, while the slide was still wedged.
    assert health["watchdog"]["slide_running"]
    assert health["watchdog"]["stalls_detected"] == 1
    counters = registry.snapshot()["counters"]
    assert counters["resilience.watchdog.stalls"] == 1
    assert supervisor.batcher.watchdog.stalls_detected == 1
    # The stall cost time, not output: every line matches the offline
    # replay once the archive was released.
    assert supervisor.batcher.pipeline_errors == 0
    assert not supervisor.forced_abort
    assert published == offline_oracle(
        soak_sentences, world, small_fleet["specs"]
    )


def test_an_injected_slide_delay_is_late_but_never_a_stall(
    world, small_fleet, soak_sentences
):
    """``service.slide:delay`` sleeps on the event loop, at the slide's
    fault point before its close: no watchdog tick can run until it ends,
    so the slide is late, never a counted stall, and its line is the
    offline one."""

    async def scenario():
        supervisor = ServiceSupervisor(
            world, small_fleet["specs"], service=ServiceConfig(**EPHEMERAL),
        )
        supervisor.batcher.watchdog.timeout_seconds = 0.05
        published = tap_feed(supervisor)
        with inject(FaultPlan.from_spec("service.slide:delay@2:0.3")) as faults:
            await supervisor.start()
            await send_sentences(supervisor.ports()["ingest"], soak_sentences)
            await poll(
                lambda: supervisor.queue.put_count == len(soak_sentences)
            )
            await supervisor.drain_and_stop()
        return supervisor, published, faults.fired

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, fired = asyncio.run(scenario())

    assert [(spec.site, spec.kind) for spec in fired] == [
        ("service.slide", "delay")
    ]
    assert supervisor.batcher.watchdog.stalls_detected == 0
    assert "resilience.watchdog.stalls" not in registry.snapshot()["counters"]
    assert supervisor.batcher.pipeline_errors == 0
    assert published == offline_oracle(
        soak_sentences, world, small_fleet["specs"]
    )

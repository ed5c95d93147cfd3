"""A failing MOD write in the live service costs one slide, counted.

The MOD is an in-process sqlite database with no guard in front of it: a
staging write that raises takes the slide-error path every pipeline
exception takes.  The slide's feed line is never published, the loss is
counted (``pipeline_errors`` on ``/healthz``, ``service.pipeline.errors``
in the metrics), and the service keeps publishing and drains clean.
"""

import asyncio
import json

from repro import obs
from repro.pipeline.system import SurveillanceSystem
from repro.resilience.faults import FaultPlan, InjectedFault, inject
from repro.service import ServiceConfig, ServiceSupervisor
from tests.parity import EPHEMERAL, offline_oracle, poll, send_sentences, tap_feed


class RecordsFailedSlides(SurveillanceSystem):
    """Notes the query time of every slide an injected fault aborted."""

    def __init__(self, *args):
        super().__init__(*args)
        self.failed: list[int] = []

    def process_slide(self, batch, query_time):
        try:
            return super().process_slide(batch, query_time)
        except InjectedFault:
            self.failed.append(query_time)
            raise


def _query_times(lines):
    return [json.loads(line)["query_time"] for line in lines]


def test_mod_write_fault_loses_exactly_one_counted_slide(
    world, small_fleet, soak_sentences
):
    async def scenario():
        supervisor = ServiceSupervisor(
            world, small_fleet["specs"], service=ServiceConfig(**EPHEMERAL),
            system_factory=RecordsFailedSlides,
        )
        published = tap_feed(supervisor)
        with inject(FaultPlan.from_spec("mod.write:error@2")):
            await supervisor.start()
            await send_sentences(supervisor.ports()["ingest"], soak_sentences)
            await poll(lambda: supervisor.queue.put_count == len(soak_sentences))
            await poll(lambda: supervisor.batcher.pipeline_errors == 1)
            health = supervisor.health()
            await supervisor.drain_and_stop()
        return supervisor, published, health

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, health = asyncio.run(scenario())

    assert supervisor.batcher.pipeline_errors == 1
    assert registry.snapshot()["counters"]["service.pipeline.errors"] == 1
    assert health["pipeline_errors"] == 1
    assert "mod_guard" not in health
    assert health["status"] == "ok"
    (lost,) = supervisor.system.failed

    expected = offline_oracle(soak_sentences, world, small_fleet["specs"])
    expected_times = _query_times(expected)
    published_times = _query_times(published)
    # The failed slide, and only it, has no feed line; every slide before
    # it is byte-identical to the offline replay, and later ones publish.
    assert lost in expected_times
    assert lost not in published_times
    assert published_times == [t for t in expected_times if t != lost]
    cut = expected_times.index(lost)
    assert published[:cut] == expected[:cut]
    assert max(published_times) > lost

    # drain_and_stop exited clean: no forced abort, the service is down.
    assert not supervisor.forced_abort
    assert supervisor.health()["status"] == "down"

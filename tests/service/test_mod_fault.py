"""A failing MOD write in the live service costs its slide's archive, counted.

The MOD is an in-process sqlite database with no guard in front of it.  A
slide's archive (staging, reconstruction) runs after its feed line is
published, so a staging write that raises costs only that archive: every
feed line still equals the offline replay, the loss is counted
(``pipeline_errors`` on ``/healthz``, ``service.pipeline.errors`` in the
metrics), the MOD lacks exactly the rows of the failed write, and the
service keeps publishing and drains clean.
"""

import asyncio
from collections import Counter

from repro import obs
from repro.resilience.faults import FaultPlan, InjectedFault, inject
from repro.service import ServiceConfig, ServiceSupervisor
from tests.parity import (
    EPHEMERAL,
    KeepsItsMod,
    archived_points,
    mod_contents,
    offline_oracle,
    offline_replay,
    poll,
    send_sentences,
    tap_feed,
)

FAULT = "mod.write:error@2"


class RecordsFailedWrites(KeepsItsMod):
    """Notes the points of every staging write an injected fault aborted."""

    def __init__(self, *args):
        super().__init__(*args)
        self.failed: list = []
        stage_points = self.database.stage_points

        def recording(points):
            try:
                return stage_points(points)
            except InjectedFault:
                self.failed += points
                raise

        self.database.stage_points = recording


def test_mod_write_fault_costs_only_its_archive(
    world, small_fleet, soak_sentences
):
    specs = small_fleet["specs"]

    async def scenario():
        supervisor = ServiceSupervisor(
            world, specs, service=ServiceConfig(**EPHEMERAL),
            system_factory=RecordsFailedWrites,
        )
        published = tap_feed(supervisor)
        with inject(FaultPlan.from_spec(FAULT)):
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
    # Every feed line, the failed slide's included, is the offline one.
    assert published == offline_oracle(soak_sentences, world, specs)

    # The MOD is the offline replay's under the same fault, and lacks
    # exactly the failed write's rows against a fault-free replay.
    live = supervisor.system.mod
    failed = Counter(
        (p.mmsi, p.timestamp, p.lon, p.lat) for p in supervisor.system.failed
    )
    assert failed
    with inject(FaultPlan.from_spec(FAULT)), offline_replay(
        soak_sentences, world, specs
    ) as faulted:
        assert live == mod_contents(faulted.database)
    with offline_replay(soak_sentences, world, specs) as clean:
        expected = archived_points(mod_contents(clean.database))
    assert archived_points(live) + failed == expected

    # drain_and_stop exited clean: no forced abort, the service is down.
    assert not supervisor.forced_abort
    assert supervisor.health()["status"] == "down"

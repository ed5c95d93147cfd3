"""Stall detection, wired into a running service.

Every call the batcher makes to its pipeline thread (an archive that
touches the MOD, and ``finalize``) arms a timer on the event loop; a call
still running when it fires is counted once as a stall
(``resilience.watchdog.stalls``), and ``/healthz`` reports it.  No option
turns it on.  Stall detection only detects: these cases release the
wedge once the stall shows.  A slide's close runs on the event loop,
where no timer can fire while it runs.
"""

import asyncio
import json

from repro import obs
from repro.gateway import GatewayCluster, GatewayClusterConfig
from repro.pipeline.config import SystemConfig
from repro.resilience.faults import FaultPlan, inject
from repro.service import ServiceConfig, ServiceSupervisor
from repro.service.batcher import SLIDE_STALL_SECONDS
from tests.parity import (
    EPHEMERAL,
    PipelineWedge,
    feed_gateways,
    offline_oracle,
    poll,
    quiesce,
    send_sentences,
    tap_feed,
)
from tests.service.test_http import http_request

#: The short stall threshold these cases set in place of the constant,
#: far above a real slide, so a wedge need not last ten seconds.
STALL = 0.05


def _supervisor(world, specs, system_factory) -> ServiceSupervisor:
    supervisor = ServiceSupervisor(
        world, specs, service=ServiceConfig(**EPHEMERAL),
        system_factory=system_factory,
    )
    supervisor.batcher.stall_seconds = STALL
    return supervisor


def test_a_supervisor_with_no_service_config_reports_its_watchdog(
    world, small_fleet
):
    supervisor = ServiceSupervisor(world, small_fleet["specs"])
    try:
        watchdog = supervisor.health()["watchdog"]
    finally:
        supervisor.system.database.close()
    assert watchdog == {
        "timeout_seconds": SLIDE_STALL_SECONDS,
        "slide_running": False,
        "current_query_time": None,
        "slides_seen": 0,
        "stalls_detected": 0,
    }


def test_stalled_slide_is_detected_counted_and_still_published(
    world, small_fleet, soak_sentences
):
    wedge = PipelineWedge()

    async def scenario():
        supervisor = _supervisor(world, small_fleet["specs"], wedge.system)
        published = tap_feed(supervisor)
        await supervisor.start()
        ports = supervisor.ports()
        await send_sentences(ports["ingest"], soak_sentences)
        await poll(lambda: supervisor.batcher.stalls_detected >= 1)
        # The wedge outlasts several timeouts: still one stall.
        await asyncio.sleep(6 * STALL)
        stalled = supervisor.batcher.stalled
        status, _, body = await http_request(ports["http"], "/healthz")
        assert status == 200
        wedge.archive_releases[0].set()
        await supervisor.drain_and_stop()
        return supervisor, published, stalled, json.loads(body)

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, stalled, health = asyncio.run(scenario())

    assert len(wedge.closed) == supervisor.batcher.slides_processed > 0
    # Counted once, under one counter, while the slide was still wedged.
    assert stalled
    assert health["watchdog"]["slide_running"]
    assert health["watchdog"]["stalls_detected"] == 1
    counters = registry.snapshot()["counters"]
    assert counters["resilience.watchdog.stalls"] == 1
    assert supervisor.batcher.stalls_detected == 1
    assert not supervisor.batcher.stalled
    # The stall cost time, not output: every line matches the offline
    # replay once the archive was released.
    assert supervisor.batcher.pipeline_errors == 0
    assert not supervisor.forced_abort
    assert published == offline_oracle(
        soak_sentences, world, small_fleet["specs"]
    )


def test_two_wedged_archives_count_two_stalls(world, small_fleet, soak_sentences):
    specs = small_fleet["specs"]
    wedge = PipelineWedge(archives=2)

    async def scenario():
        supervisor = _supervisor(world, specs, wedge.system)
        published = tap_feed(supervisor)
        batcher = supervisor.batcher
        await supervisor.start()
        await send_sentences(supervisor.ports()["ingest"], soak_sentences)
        seen = []
        for release in wedge.archive_releases:
            await poll(lambda: batcher.stalls_detected > len(seen))
            seen.append(
                (batcher.stalls_detected, batcher.pipeline_query_time)
            )
            release.set()
        await supervisor.drain_and_stop()
        return supervisor, published, seen

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, seen = asyncio.run(scenario())

    # Each wedged archive was its own stall, on its own slide.
    first, second = wedge.closed[:2]
    assert seen == [(1, first), (2, second)]
    assert supervisor.batcher.stalls_detected == 2
    assert registry.snapshot()["counters"]["resilience.watchdog.stalls"] == 2
    assert supervisor.batcher.pipeline_errors == 0
    assert published == offline_oracle(soak_sentences, world, specs)


def test_a_wedged_finalize_counts_one_stall_and_the_drain_completes(
    world, small_fleet, soak_sentences
):
    specs = small_fleet["specs"]
    wedge = PipelineWedge(archives=0, finalize=True)

    async def scenario():
        supervisor = _supervisor(world, specs, wedge.system)
        published = tap_feed(supervisor)
        batcher = supervisor.batcher
        await supervisor.start()
        await send_sentences(supervisor.ports()["ingest"], soak_sentences)
        await poll(lambda: supervisor.queue.put_count == len(soak_sentences))
        drain = asyncio.ensure_future(supervisor.drain_and_stop())
        await poll(lambda: batcher.stalls_detected >= 1)
        watchdog = supervisor.health()["watchdog"]
        final = batcher._query_time
        wedge.finalize_release.set()
        await drain
        return supervisor, published, watchdog, final

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, watchdog, final = asyncio.run(scenario())

    assert watchdog["slide_running"]
    assert watchdog["current_query_time"] == final
    assert watchdog["stalls_detected"] == 1
    assert registry.snapshot()["counters"]["resilience.watchdog.stalls"] == 1
    assert not supervisor.forced_abort
    assert supervisor.batcher.pipeline_errors == 0
    assert published == offline_oracle(soak_sentences, world, specs)
    assert json.loads(published[-1])["type"] == "finalize"


def test_an_injected_slide_delay_is_late_but_never_a_stall(
    world, small_fleet, soak_sentences
):
    """``service.slide:delay`` sleeps on the event loop, at the slide's
    fault point before its close: no pipeline-thread call is running, so
    the slide is late, never a counted stall, and its line is the
    offline one."""

    async def scenario():
        supervisor = _supervisor(world, small_fleet["specs"], None)
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
    assert supervisor.batcher.stalls_detected == 0
    assert "resilience.watchdog.stalls" not in registry.snapshot()["counters"]
    assert supervisor.batcher.pipeline_errors == 0
    assert published == offline_oracle(
        soak_sentences, world, small_fleet["specs"]
    )


def test_a_cluster_with_a_stalled_shard_is_degraded(
    world, small_fleet, soak_sentences
):
    """One shard's wedged archive holds back every merged line (the
    barrier merge waits for it) while the other shard keeps closing
    slides: the cluster reports ``degraded`` until the wedge clears, and
    the merged feed is then the offline one."""
    specs = small_fleet["specs"]
    config = SystemConfig(ce_scope="vessel")

    async def scenario():
        cluster = GatewayCluster(
            world, specs, config, GatewayClusterConfig(gateways=1, runtimes=2)
        )
        wedged = cluster.supervisors[0]
        # Runtime 0's archives touch the MOD, and the first one wedges.
        wedge = PipelineWedge()
        wedge.install(wedged.system)
        wedged.batcher.stall_seconds = STALL
        await cluster.start()
        await feed_gateways(cluster, [soak_sentences])
        await poll(lambda: wedged.batcher.stalled)
        other = cluster.supervisors[1].batcher
        await poll(lambda: other.slides_processed > 2)
        during = cluster.aggregator.health()
        wedge.archive_releases[0].set()
        await quiesce(cluster)
        await poll(lambda: not wedged.batcher.stalled)
        after = cluster.aggregator.health()
        await cluster.drain_and_stop()
        return cluster, during, after

    cluster, during, after = asyncio.run(scenario())

    assert during["status"] == "degraded"
    assert [entry["stalled"] for entry in during["runtimes"]] == [True, False]
    stalled, other = during["runtimes"]
    assert during["feed"]["merged_lines"] <= stalled["slides"] < other["slides"]
    assert [entry["status"] for entry in during["runtimes"]] == ["ok", "ok"]
    assert after["status"] == "ok"
    assert cluster.supervisors[0].batcher.stalls_detected == 1
    assert cluster.merged_lines == offline_oracle(
        soak_sentences, world, specs, config
    )

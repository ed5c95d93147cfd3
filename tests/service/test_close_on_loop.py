"""Where a live slide's work runs: the close on the event loop, the MOD
on the one pipeline thread.

The batcher closes each slide (compress, recognize) synchronously on the
loop, as it tracks, and hands only the MOD's sqlite work, an ``archive``
that stages or reconstructs and ``finalize``, to its pipeline thread; an
archive with nothing to stage runs on the loop.  These cases pin that
placement on a node and on every shard of a 2×4 cluster, what a close
that raises costs, and that a catch-up burst of slides yields the loop
between them and hops to the pipeline thread only to stage.
"""

import asyncio
import contextlib
import json
import threading

from repro import obs
from repro.gateway import GatewayCluster, GatewayClusterConfig
from repro.pipeline.config import SystemConfig
from repro.pipeline.system import SurveillanceSystem
from repro.service import ServiceConfig, ServiceSupervisor
from tests.gateway.conftest import split_round_robin
from tests.parity import (
    EPHEMERAL,
    offline_oracle,
    poll,
    run_cluster,
    run_live,
    send_sentences,
    tap_feed,
)


class RecordsThreads(SurveillanceSystem):
    """Notes the thread each pipeline call ran on."""

    def __init__(self, *args):
        super().__init__(*args)
        self.threads: dict[str, set[int]] = {
            "close_slide": set(), "archive": set(), "archive without MOD": set(),
            "finalize": set(),
        }

    def close_slide(self, query_time):
        self.threads["close_slide"].add(threading.get_ident())
        return super().close_slide(query_time)

    def archive(self):
        kind = "archive" if self.archive_touches_mod() else "archive without MOD"
        self.threads[kind].add(threading.get_ident())
        super().archive()

    def finalize(self):
        self.threads["finalize"].add(threading.get_ident())
        return super().finalize()


def _assert_placement(system: RecordsThreads, loop_thread: int) -> None:
    threads = system.threads
    assert threads["close_slide"] == {loop_thread}
    assert len(threads["finalize"]) == 1
    (pipeline_thread,) = threads["finalize"]
    assert pipeline_thread != loop_thread
    # Every archive that touches the MOD runs on that one thread,
    # finalize's own included; the rest run on the loop.
    assert threads["archive"] == {pipeline_thread}
    assert threads["archive without MOD"] == {loop_thread}


def test_a_node_closes_on_the_loop_and_archives_on_its_pipeline_thread(
    world, small_fleet, soak_sentences
):
    async def scenario():
        supervisor, lines = await run_live(
            soak_sentences, world, small_fleet["specs"],
            system_factory=RecordsThreads,
        )
        return threading.get_ident(), supervisor, lines

    loop_thread, supervisor, lines = asyncio.run(scenario())
    assert supervisor.batcher.slides_processed > 1
    _assert_placement(supervisor.system, loop_thread)
    assert lines == offline_oracle(soak_sentences, world, small_fleet["specs"])


def test_every_shard_closes_on_the_loop_and_archives_on_its_own_thread(
    world, small_fleet, soak_sentences, monkeypatch
):
    # The cluster builds its runtimes' pipelines itself.
    monkeypatch.setattr(
        "repro.service.supervisor.SurveillanceSystem", RecordsThreads
    )
    config = SystemConfig(ce_scope="vessel")

    async def scenario():
        cluster = GatewayCluster(
            world, small_fleet["specs"], config,
            GatewayClusterConfig(gateways=2, runtimes=4),
        )
        await run_cluster(cluster, split_round_robin(soak_sentences, 2))
        return threading.get_ident(), cluster

    loop_thread, cluster = asyncio.run(scenario())
    assert len(cluster.supervisors) == 4
    for supervisor in cluster.supervisors:
        assert supervisor.batcher.slides_processed > 1
        _assert_placement(supervisor.system, loop_thread)
    assert cluster.merged_lines == offline_oracle(
        soak_sentences, world, small_fleet["specs"], config
    )


class RecognitionFailsOnce(SurveillanceSystem):
    """The third slide's recognition raises, inside its close."""

    FAILING_CLOSE = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.closes = 0

    def close_slide(self, query_time):
        self.closes += 1
        if self.closes == self.FAILING_CLOSE:
            step = self.recognizer.step

            def failing(query_time):
                self.recognizer.step = step
                raise RuntimeError("recognition failed")

            self.recognizer.step = failing
        return super().close_slide(query_time)


def test_a_close_that_raises_costs_only_its_slide_counted(
    world, small_fleet, soak_sentences
):
    specs = small_fleet["specs"]

    async def scenario():
        supervisor = ServiceSupervisor(
            world, specs, service=ServiceConfig(**EPHEMERAL),
            system_factory=RecognitionFailsOnce,
        )
        published = tap_feed(supervisor)
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
    assert not supervisor.forced_abort
    oracle = offline_oracle(soak_sentences, world, specs)
    lost = json.loads(oracle[RecognitionFailsOnce.FAILING_CLOSE - 1])
    query_times = [json.loads(line)["query_time"] for line in published]
    # Only the failed slide's line is missing; the ones before it are the
    # offline lines, and the service slid on and finalized.
    assert query_times == [
        json.loads(line)["query_time"]
        for line in oracle
        if json.loads(line)["query_time"] != lost["query_time"]
    ]
    failing = RecognitionFailsOnce.FAILING_CLOSE - 1
    assert published[:failing] == oracle[:failing]
    assert supervisor.batcher.slides_processed == len(oracle) - 2


def test_a_catch_up_burst_yields_the_loop_after_every_slide(
    world, small_fleet, soak_sentences
):
    """One line stamped far ahead runs every slide up to it: the loop
    turns between consecutive closes, and between each published line
    and the archive that follows it.  Only an archive that stages
    expired points makes the trip to the pipeline thread: the rest of
    the burst runs on the loop, and only the batcher's own yield turns
    it between them."""
    ticks = [0]
    head = soak_sentences[:200]
    slide = SystemConfig().window.slide_seconds
    burst = head + [(head[-1][0] + 80 * slide, head[-1][1])]

    class ReadsTicksAtEachClose(SurveillanceSystem):
        def __init__(self, *args):
            super().__init__(*args)
            self.ticks_at_close: list[int] = []
            self.expired: list[int] = []

        def close_slide(self, query_time):
            self.ticks_at_close.append(ticks[0])
            report = super().close_slide(query_time)
            self.expired.append(report.expired_critical_points)
            return report

    async def tick():
        while True:
            ticks[0] += 1
            await asyncio.sleep(0)

    async def scenario():
        supervisor = ServiceSupervisor(
            world, small_fleet["specs"], service=ServiceConfig(**EPHEMERAL),
            system_factory=ReadsTicksAtEachClose,
        )
        beats: list[tuple[str, int]] = []
        publish = supervisor.feed.publish

        def tapped_publish(line):
            beats.append(("publish", ticks[0]))
            return publish(line)

        supervisor.feed.publish = tapped_publish
        # The batcher asks this once for each due archive, before it runs.
        touches_mod = supervisor.system.archive_touches_mod

        def tapped_touches_mod():
            beats.append(("archive", ticks[0]))
            return touches_mod()

        supervisor.system.archive_touches_mod = tapped_touches_mod
        executor = supervisor.batcher._executor
        submit = executor.submit

        def counted_submit(fn, *args):
            hops.append(fn)
            return submit(fn, *args)

        executor.submit = counted_submit
        ticker = asyncio.ensure_future(tick())
        try:
            await supervisor.start()
            await send_sentences(supervisor.ports()["ingest"], burst)
            await poll(lambda: supervisor.queue.put_count == len(burst))
            await poll(lambda: len(supervisor.queue) == 0)
            await supervisor.drain_and_stop()
        finally:
            ticker.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await ticker
        return supervisor, beats

    hops: list = []
    supervisor, beats = asyncio.run(scenario())
    closes = supervisor.system.ticks_at_close
    assert len(closes) > 60
    assert all(a < b for a, b in zip(closes, closes[1:]))
    pairs = [
        (a[1], b[1])
        for a, b in zip(beats, beats[1:])
        if a[0] == "publish" and b[0] == "archive"
    ]
    assert len(pairs) > 60
    assert all(published < archived for published, archived in pairs)
    # The pipeline thread ran the archives of the slides that staged
    # something, and finalize.
    staged = sum(1 for expired in supervisor.system.expired if expired)
    assert 0 < staged < len(closes)
    assert len(hops) == staged + 1

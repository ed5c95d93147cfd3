"""End-to-end soak tests: TCP ingest must equal the offline replay, byte for byte.

The live path (real sockets -> IngestQueue -> SlideBatcher -> feed) and
the offline path (DataScanner -> StreamReplayer -> slide_feed_line) must
produce identical feed lines for the same sentence stream — at one shard,
at two shards, and across an induced load-shed (where parity holds for
the post-shed stream the batcher recorded, and every shed sentence is
counted in the metrics registry).
"""

import asyncio
import time

from repro import obs
from repro.obs.registry import render_prometheus
from repro.pipeline.system import SurveillanceSystem
from repro.service import ServiceConfig, ServiceSupervisor
from tests.parity import offline_oracle

EPHEMERAL = {"ingest_port": 0, "feed_port": 0, "http_port": 0}


async def _poll(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "poll timed out"
        await asyncio.sleep(0.005)


async def run_live(
    sentences, world, specs, config=None, service=None, system_factory=None
):
    """Stream ``sentences`` over real TCP, collect the feed, drain cleanly."""
    supervisor = ServiceSupervisor(
        world,
        specs,
        config,
        service or ServiceConfig(**EPHEMERAL),
        system_factory=system_factory,
    )
    await supervisor.start()
    ports = supervisor.ports()

    # Slide lines can exceed the 64 KiB default StreamReader limit.
    feed_reader, feed_writer = await asyncio.open_connection(
        "127.0.0.1", ports["feed"], limit=1 << 24
    )
    await _poll(lambda: supervisor.feed.subscriber_count == 1)

    _, ingest_writer = await asyncio.open_connection(
        "127.0.0.1", ports["ingest"]
    )
    for receive_time, sentence in sentences:
        ingest_writer.write(f"{receive_time}\t{sentence}\n".encode("ascii"))
        if ingest_writer.transport.get_write_buffer_size() > 1 << 16:
            await ingest_writer.drain()
    await ingest_writer.drain()
    ingest_writer.close()
    await ingest_writer.wait_closed()

    # All lines are enqueued once the server side has seen the EOF.
    await _poll(lambda: supervisor.ingest.open_connections == 0)
    await supervisor.drain_and_stop()

    lines = []
    while True:
        raw = await feed_reader.readline()
        if not raw:
            break
        lines.append(raw.decode("utf-8").rstrip("\n"))
    feed_writer.close()
    try:
        await feed_writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return supervisor, lines


class TestSoakParity:
    def test_tcp_ingest_matches_offline_replay_one_shard(
        self, world, small_fleet, soak_sentences
    ):
        supervisor, live = asyncio.run(
            run_live(soak_sentences, world, small_fleet["specs"])
        )
        offline = offline_oracle(
            soak_sentences, world, small_fleet["specs"]
        )
        assert supervisor.queue.shed_count == 0
        assert live == offline  # byte-identical, slide for slide
        assert supervisor.batcher.scanner.statistics.reassembled > 0
        assert any('"type": "finalize"' in line or
                   '"type":"finalize"' in line for line in live)

    def test_tcp_ingest_matches_offline_replay_two_shards(
        self, world, small_fleet, soak_sentences
    ):
        service = ServiceConfig(shards=2, **EPHEMERAL)
        supervisor, live = asyncio.run(
            run_live(soak_sentences, world, small_fleet["specs"],
                     service=service)
        )
        offline = offline_oracle(
            soak_sentences, world, small_fleet["specs"], shards=2
        )
        assert supervisor.queue.shed_count == 0
        assert live == offline
        # And the sharded offline replay equals the single-process one —
        # the determinism guarantee the service inherits.
        assert offline == offline_oracle(
            soak_sentences, world, small_fleet["specs"], shards=1
        )

    def test_induced_load_shed_is_counted_and_parity_holds(
        self, world, small_fleet, soak_sentences
    ):
        """Overrun a tiny queue; parity must hold for the post-shed stream."""

        class SlowSystem(SurveillanceSystem):
            """The real pipeline, stalling each slide so the socket reader
            outruns the batcher and the bounded queue must shed."""

            def process_slide(self, batch, query_time):
                time.sleep(0.05)
                return super().process_slide(batch, query_time)

        service = ServiceConfig(
            ingest_queue_size=64, record_ingest=True, **EPHEMERAL
        )
        def factory(world, specs, config, shards, checkpoint_dir):
            return SlowSystem(world, specs, config)
        with obs.activate(obs.MetricsRegistry()) as registry:
            supervisor, live = asyncio.run(
                run_live(
                    soak_sentences,
                    world,
                    small_fleet["specs"],
                    service=service,
                    system_factory=factory,
                )
            )
            exposition = render_prometheus(registry)

        assert supervisor.queue.shed_count > 0, "test failed to induce shedding"
        # Shed events are counted, never silent — and visible on /metrics.
        assert (
            registry.counter("service.ingest.shed").value
            == supervisor.queue.shed_count
        )
        assert (
            f"repro_service_ingest_shed_total {supervisor.queue.shed_count}"
            in exposition
        )
        # The surviving stream is exactly what the batcher recorded, and
        # replaying it offline reproduces the live feed byte for byte.
        recorded = supervisor.batcher.ingested
        assert len(recorded) == len(soak_sentences) - supervisor.queue.shed_count
        offline = offline_oracle(recorded, world, small_fleet["specs"])
        assert live == offline

"""End-to-end soak tests: TCP ingest must equal the offline replay, byte for byte.

The live path (real sockets -> IngestQueue -> SlideBatcher -> feed) and
the offline path (DataScanner -> StreamReplayer -> slide_feed_line) must
produce identical feed lines for the same sentence stream — as sent, and
across an induced load-shed (where parity holds for
the post-shed stream the batcher recorded, and every shed sentence is
counted in the metrics registry).
"""

import asyncio
import time

from repro import obs
from repro.obs.registry import render_prometheus
from repro.pipeline.system import SurveillanceSystem
from repro.service import ServiceConfig, ServiceSupervisor
from tests.parity import EPHEMERAL, offline_oracle, poll


async def run_live(
    sentences, world, specs, config=None, service=None, system_factory=None,
    record_ingest=False,
):
    """Stream ``sentences`` over real TCP, collect the feed, drain cleanly.

    ``record_ingest`` switches on the batcher's tap of every scanned
    record (``supervisor.batcher.ingested``)."""
    supervisor = ServiceSupervisor(
        world,
        specs,
        config,
        service or ServiceConfig(**EPHEMERAL),
        system_factory=system_factory,
    )
    supervisor.batcher.record_ingest = record_ingest
    await supervisor.start()
    ports = supervisor.ports()

    # Slide lines can exceed the 64 KiB default StreamReader limit.
    feed_reader, feed_writer = await asyncio.open_connection(
        "127.0.0.1", ports["feed"], limit=1 << 24
    )
    await poll(lambda: supervisor.feed.subscriber_count == 1)

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
    await poll(lambda: supervisor.ingest.open_connections == 0)
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

        service = ServiceConfig(ingest_queue_size=64, **EPHEMERAL)
        with obs.activate(obs.MetricsRegistry()) as registry:
            supervisor, live = asyncio.run(
                run_live(
                    soak_sentences,
                    world,
                    small_fleet["specs"],
                    service=service,
                    system_factory=SlowSystem,
                    record_ingest=True,
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

"""Backpressure semantics through every transport adapter.

The shedding and eviction contracts are queue-level, but the queues sit
behind pluggable transports — so each contract is proven through each
registered adapter: the ingest queue sheds oldest-first no matter how
lines arrive, and a feed subscriber that stops reading is evicted no
matter what framing it subscribed with.
"""

import asyncio

import pytest

from repro import obs
from repro.service import FeedHub, IngestQueue, IngestServer
from repro.transport import available_transports, create_transport
from tests.parity import poll


@pytest.fixture(params=available_transports())
def transport(request):
    return create_transport(request.param)


class TestIngestSheddingThroughTransports:
    def test_oldest_lines_shed_whatever_the_wire(self, transport):
        async def run():
            with obs.activate(obs.MetricsRegistry()) as registry:
                queue = IngestQueue(capacity=4)
                server = IngestServer(
                    queue, "127.0.0.1", 0, clock=lambda: 0,
                    transport=transport,
                )
                await server.start()
                client = await transport.connect(
                    "127.0.0.1", server.port, "ingest"
                )
                for index in range(20):
                    await client.send(f"{index}\tS{index}")
                await client.close()
                await poll(lambda: queue.put_count == 20)
                await server.stop()
                kept = []
                queue.close()
                while (item := await queue.get()) is not None:
                    kept.append(item[1])
                return queue.shed_count, kept, registry

        shed, kept, registry = asyncio.run(run())
        assert shed == 16
        assert kept == ["S16", "S17", "S18", "S19"]  # newest survive
        assert registry.counter("service.ingest.shed").value == 16
        assert registry.counter("service.ingest.lines").value == 20


class TestFeedEvictionThroughTransports:
    def test_stalled_subscriber_is_evicted_counted(self, transport):
        async def run():
            with obs.activate(obs.MetricsRegistry()) as registry:
                hub = FeedHub(
                    "127.0.0.1", 0, queue_size=4, transport=transport
                )
                await hub.start()
                stalled = await transport.connect(
                    "127.0.0.1", hub.port, "feed"
                )
                await poll(lambda: hub.subscriber_count == 1)
                # Publish synchronously, more than the queue holds: the
                # writer task never gets the loop, so the bounded queue
                # must fill and the subscriber must be evicted.
                for index in range(6):
                    hub.publish(f"line-{index}")
                assert hub.evicted_count == 1
                await poll(lambda: hub.subscriber_count == 0)
                # The evicted side sees its stream end, not hang.
                while await stalled.receive() is not None:
                    pass
                await stalled.close()
                await hub.close()
                return registry

        registry = asyncio.run(run())
        assert registry.counter("service.feed.evicted").value == 1
        assert registry.counter("service.feed.dropped_lines").value > 0

    def test_healthy_subscriber_survives_the_same_volume(self, transport):
        async def run():
            hub = FeedHub("127.0.0.1", 0, queue_size=4, transport=transport)
            await hub.start()
            healthy = await transport.connect("127.0.0.1", hub.port, "feed")
            received: list[str] = []

            async def consume():
                while (line := await healthy.receive()) is not None:
                    received.append(line)

            consumer = asyncio.ensure_future(consume())
            await poll(lambda: hub.subscriber_count == 1)
            for index in range(50):
                hub.publish(f"line-{index}")
                # A reading consumer keeps draining between publishes.
                await asyncio.sleep(0.001)
            await poll(lambda: len(received) == 50)
            await hub.close()
            await consumer
            await healthy.close()
            return hub.evicted_count, received

        evicted, received = asyncio.run(run())
        assert evicted == 0
        assert received == [f"line-{i}" for i in range(50)]

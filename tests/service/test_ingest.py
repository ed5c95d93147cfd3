"""Ingest queue shedding semantics and the TCP listener."""

import asyncio
from collections import deque

import pytest

from repro import obs
from repro.service import IngestQueue, IngestServer


def run(coro):
    return asyncio.run(coro)


class TestIngestQueue:
    def test_fifo_under_capacity(self):
        async def scenario():
            queue = IngestQueue(capacity=4)
            queue.put(1, "a")
            queue.put(2, "b")
            first = await queue.get()
            second = await queue.get()
            return first[:2], second[:2]

        assert run(scenario()) == ((1, "a"), (2, "b"))

    def test_overflow_sheds_oldest_and_counts(self):
        async def scenario():
            with obs.activate(obs.MetricsRegistry()) as registry:
                queue = IngestQueue(capacity=3)
                for index in range(10):
                    queue.put(index, f"s{index}")
                kept = [(await queue.get())[1] for _ in range(len(queue))]
                return queue.shed_count, kept, registry.counter(
                    "service.ingest.shed"
                ).value

        shed, kept, counted = run(scenario())
        assert shed == 7
        assert kept == ["s7", "s8", "s9"]  # newest survive, oldest shed
        assert counted == 7

    def test_get_returns_none_after_close_and_drain(self):
        async def scenario():
            queue = IngestQueue(capacity=4)
            queue.put(1, "a")
            queue.close()
            first = await queue.get()
            sentinel = await queue.get()
            return first[1], sentinel

        assert run(scenario()) == ("a", None)

    def test_put_after_close_is_counted_not_silent(self):
        async def scenario():
            with obs.activate(obs.MetricsRegistry()) as registry:
                queue = IngestQueue(capacity=4)
                queue.close()
                queue.put(1, "late")
                return len(queue), registry.counter(
                    "service.ingest.dropped_after_close"
                ).value

        assert run(scenario()) == (0, 1)

    def test_get_waits_for_put(self):
        async def scenario():
            queue = IngestQueue(capacity=4)

            async def producer():
                await asyncio.sleep(0.01)
                queue.put(5, "later")

            task = asyncio.ensure_future(producer())
            item = await asyncio.wait_for(queue.get(), timeout=2)
            await task
            return item[:2]

        assert run(scenario()) == ((5, "later"))

    @pytest.mark.parametrize("batch", [1, 2, 3, 7])
    def test_put_many_sheds_exactly_as_puts_one_by_one(self, batch):
        items = [(index, f"s{index}") for index in range(20)]

        async def scenario(put):
            with obs.activate(obs.MetricsRegistry()) as registry:
                queue = IngestQueue(capacity=5)
                put(queue)
                kept = [(await queue.get())[:2] for _ in range(len(queue))]
                return kept, queue.shed_count, queue.put_count, registry.counter(
                    "service.ingest.shed"
                ).value

        def one_by_one(queue):
            for item in items:
                queue.put(*item)

        def batched(queue):
            for start in range(0, len(items), batch):
                queue.put_many(items[start : start + batch])

        assert run(scenario(batched)) == run(scenario(one_by_one))

    def test_get_many_hands_over_everything_and_counts_it_until_asked_again(self):
        async def scenario():
            queue = IngestQueue(capacity=10)
            queue.put_many([(1, "a"), (2, "b")])
            first = await queue.get_many()
            depth_in_hand = len(queue)
            queue.put(3, "c")
            depth_with_more = len(queue)
            second = await queue.get_many()
            depth_after = len(queue)
            queue.close()
            third = await queue.get_many()
            return (
                [item[:2] for item in first], depth_in_hand, depth_with_more,
                [item[:2] for item in second], depth_after, third, len(queue),
            )

        assert run(scenario()) == (
            [(1, "a"), (2, "b")], 2, 3, [(3, "c")], 1, [], 0,
        )

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            IngestQueue(0)


class TestIngestServer:
    def test_many_clients_one_queue(self):
        async def scenario():
            queue = IngestQueue(capacity=100)
            server = IngestServer(queue, "127.0.0.1", 0, clock=lambda: 42)
            await server.start()
            try:
                async def client(lines):
                    _, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    for line in lines:
                        writer.write(line.encode() + b"\n")
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()

                await asyncio.gather(
                    client(["100\t!AIVDM,a", "# comment", ""]),
                    client(["!AIVDM,b"]),
                )
                while server.open_connections:
                    await asyncio.sleep(0.005)
                items = []
                while len(queue):
                    items.append((await queue.get())[:2])
                return sorted(items)

            finally:
                await server.stop()

        with obs.activate(obs.MetricsRegistry()) as registry:
            items = run(scenario())
        # Comments/blank lines never reach the queue; the bare sentence
        # was stamped with the injected clock.
        assert items == [(42, "!AIVDM,b"), (100, "!AIVDM,a")]
        assert registry.counter("service.ingest.connections").value == 2

    def test_unparseable_lines_are_counted_not_silent(self):
        async def scenario():
            with obs.activate(obs.MetricsRegistry()) as registry:
                queue = IngestQueue(capacity=10)
                server = IngestServer(queue, "127.0.0.1", 0, clock=lambda: 7)
                await server.start()
                try:
                    _, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(b"# comment\n\n!AIVDM,ok\n")
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()
                    while server.open_connections:
                        await asyncio.sleep(0.005)
                    return (
                        registry.counter("service.ingest.ignored").value,
                        registry.counter("service.ingest.lines").value,
                        len(queue),
                    )
                finally:
                    await server.stop()

        ignored, accepted, queued = run(scenario())
        # The comment and the blank line are skipped by design — but the
        # skip is visible in the registry, not silent.
        assert ignored == 2
        assert accepted == 1
        assert queued == 1

    def test_per_connection_stats(self):
        # A connection's lines and bytes land in registry counters; the
        # server keeps no record of a closed connection.
        async def scenario():
            queue = IngestQueue(capacity=10)
            server = IngestServer(queue, "127.0.0.1", 0)
            await server.start()
            try:
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"1\t!AIVDM,x\n2\t!AIVDM,y\n")
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                while server.open_connections:
                    await asyncio.sleep(0.005)
            finally:
                await server.stop()

        with obs.activate(obs.MetricsRegistry()) as registry:
            run(scenario())
        assert registry.counter("service.ingest.lines").value == 2
        assert registry.counter("service.ingest.bytes").value == len(
            b"1\t!AIVDM,x\n2\t!AIVDM,y\n"
        )

    def test_reconnecting_clients_leave_nothing_behind(self):
        # 50 connect/close cycles: every container the server holds is as
        # large after the last as after the first.
        async def scenario():
            queue = IngestQueue(capacity=200)
            server = IngestServer(queue, "127.0.0.1", 0)
            await server.start()
            try:
                sizes = []
                for cycle in range(50):
                    _, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(f"{cycle}\t!AIVDM,x\n".encode())
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()
                    while server.open_connections or len(queue) <= cycle:
                        await asyncio.sleep(0.005)
                    sizes.append({
                        name: len(value)
                        for name, value in vars(server).items()
                        if isinstance(value, (list, dict, set, deque))
                    })
                return sizes, len(queue)
            finally:
                await server.stop()

        sizes, queued = run(scenario())
        assert queued == 50
        assert sizes[-1] == sizes[0]

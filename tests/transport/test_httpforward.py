"""HTTP-forward specifics: POST batching, the retry budget, request
validation, and chunked-stream reassembly on the feed side."""

import asyncio

import pytest

from repro import obs
from repro.resilience.retry import BackoffPolicy
from repro.transport.base import TransportError
from repro.transport.httpforward import (
    MAX_BODY_BYTES,
    HttpForwardTransport,
)
from repro.transport.tcp import CLIENT_READ_LIMIT
from tests.parity import poll

FAST_RETRY = BackoffPolicy(
    initial_seconds=0.001, multiplier=1.0, max_seconds=0.001, max_attempts=3
)


async def _ingest_server(transport, received, errors):
    async def handle(reader, writer):
        session = await transport.accept(reader, writer, "ingest")
        try:
            while True:
                line = await session.receive()
                if line is None:
                    break
                received.append(line)
        except TransportError as exc:
            errors.append(exc)
        finally:
            await session.close()

    server = await asyncio.start_server(
        handle, "127.0.0.1", 0, limit=CLIENT_READ_LIMIT
    )
    return server, server.sockets[0].getsockname()[1]


class TestIngestBatching:
    def test_lines_flush_per_batch_and_on_close(self):
        async def run():
            transport = HttpForwardTransport(batch_lines=3)
            received: list[str] = []
            server, port = await _ingest_server(transport, received, [])
            client = await transport.connect("127.0.0.1", port, "ingest")
            for index in range(7):
                await client.send(f"line-{index}")
            # Two full batches are on the wire; the seventh line is still
            # buffered client-side until close() flushes it.
            await poll(lambda: len(received) == 6)
            await client.close()
            await poll(lambda: len(received) == 7)
            server.close()
            await server.wait_closed()
            return received

        assert asyncio.run(run()) == [f"line-{i}" for i in range(7)]

    def test_retry_budget_spent_drops_the_batch_counted(self):
        async def run():
            # A port that was listening and is not any more.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()

            transport = HttpForwardTransport(batch_lines=2, policy=FAST_RETRY)
            with obs.activate(obs.MetricsRegistry()) as registry:
                client = await transport.connect("127.0.0.1", port, "ingest")
                client._buffer = ["a", "b"]
                with pytest.raises(TransportError, match="dropped"):
                    await client.flush()
                return registry

        registry = asyncio.run(run())
        assert registry.counter("transport.http.post_attempts").value == 3
        assert registry.counter("transport.http.post_retries").value == 2
        assert registry.counter("transport.http.batches_dropped").value == 1
        assert registry.counter("transport.http.lines_dropped").value == 2

    def test_non_post_gets_405_and_the_connection_survives(self):
        async def run():
            transport = HttpForwardTransport()
            received: list[str] = []
            server, port = await _ingest_server(transport, received, [])
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /ingest HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            status = (await reader.readline()).decode("ascii")
            assert " 405 " in status
            await reader.readuntil(b"\r\n\r\n")
            # Same connection, a proper POST: still accepted.
            body = b"recovered\n"
            writer.write(
                b"POST /ingest HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            await writer.drain()
            await poll(lambda: received == ["recovered"])
            writer.close()
            server.close()
            await server.wait_closed()
            return received

        assert asyncio.run(run()) == ["recovered"]

    def test_oversized_body_is_a_protocol_error(self):
        async def run():
            transport = HttpForwardTransport()
            errors: list = []
            server, port = await _ingest_server(transport, [], errors)
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /ingest HTTP/1.1\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(
                    "ascii"
                )
            )
            await writer.drain()
            await poll(lambda: len(errors) == 1)
            writer.close()
            server.close()
            await server.wait_closed()
            return errors

        (error,) = asyncio.run(run())
        assert "too large" in str(error)


class TestRetryThenRecover:
    def test_transient_refusal_is_retried_within_budget(self):
        """One aborted POST must not cost any lines: the batch is retried
        (counted) and delivered whole once the server behaves."""
        async def run():
            transport = HttpForwardTransport(batch_lines=2, policy=FAST_RETRY)
            received: list[str] = []
            aborted = []

            async def handle(reader, writer):
                if not aborted:
                    # First request: hang up before responding.
                    aborted.append(True)
                    await reader.readline()
                    writer.close()
                    return
                session = await transport.accept(reader, writer, "ingest")
                while True:
                    line = await session.receive()
                    if line is None:
                        break
                    received.append(line)
                await session.close()

            server = await asyncio.start_server(
                handle, "127.0.0.1", 0, limit=CLIENT_READ_LIMIT
            )
            port = server.sockets[0].getsockname()[1]
            with obs.activate(obs.MetricsRegistry()) as registry:
                client = await transport.connect("127.0.0.1", port, "ingest")
                await client.send("a")
                await client.send("b")  # second line flushes the batch
                await client.close()
            await poll(lambda: len(received) == 2)
            server.close()
            await server.wait_closed()
            return received, registry

        received, registry = asyncio.run(run())
        assert received == ["a", "b"]
        assert registry.counter("transport.http.post_retries").value == 1
        assert registry.counter("transport.http.batches_dropped").value == 0
        assert registry.counter("transport.http.lines_dropped").value == 0


class TestFeedResumeQuery:
    def test_accept_parses_the_resume_parameter(self):
        async def run():
            transport = HttpForwardTransport()
            seqs = []
            done = asyncio.Event()

            async def handle(reader, writer):
                session = await transport.accept(reader, writer, "feed")
                seqs.append(None if session is None else session.resume_seq)
                if session is not None:
                    await session.close()
                done.set()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            for target in ("/feed?resume=5", "/feed", "/feed?resume=junk",
                           "/feed?resume=-3"):
                done.clear()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                )
                await writer.drain()
                await done.wait()
                writer.close()
            server.close()
            await server.wait_closed()
            return seqs

        # Parsed when valid; garbage and negatives fall back to a
        # classic unstamped subscription, never an error.
        assert asyncio.run(run()) == [5, None, None, None]

    def test_set_feed_resume_rides_the_request_line(self):
        async def run():
            requests = []

            async def handle(reader, writer):
                requests.append((await reader.readline()).decode("ascii"))
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            transport = HttpForwardTransport()
            transport.set_feed_resume(17)
            try:
                session = await transport.connect("127.0.0.1", port, "feed")
                await session.close()
            except Exception:
                pass  # the stub server hangs up; only the request matters
            await poll(lambda: requests)
            server.close()
            await server.wait_closed()
            return requests

        assert asyncio.run(run())[0].startswith("GET /feed?resume=17 ")

    def test_set_feed_resume_rejects_negatives(self):
        transport = HttpForwardTransport()
        with pytest.raises(ValueError):
            transport.set_feed_resume(-1)
        transport.set_feed_resume(None)  # restores plain subscription


class TestFeedChunking:
    def test_lines_reassemble_across_chunk_boundaries(self):
        """The client must tolerate any chunking of the line stream: a
        line split across chunks, and two lines packed into one chunk."""

        async def run():
            async def handle(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                )

                def chunk(data: bytes) -> bytes:
                    return f"{len(data):x}\r\n".encode() + data + b"\r\n"

                writer.write(chunk(b"first-ha"))
                writer.write(chunk(b"lf\nsecond\nthi"))
                writer.write(chunk(b"rd\n"))
                writer.write(b"0\r\n\r\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await HttpForwardTransport().connect(
                "127.0.0.1", port, "feed"
            )
            lines = []
            while True:
                line = await client.receive()
                if line is None:
                    break
                lines.append(line)
            await client.close()
            server.close()
            await server.wait_closed()
            return lines

        assert asyncio.run(run()) == ["first-half", "second", "third"]

"""WebSocket protocol specifics beyond the shared conformance contract:
the RFC 6455 handshake vector, control frames, fragmentation, and the
masking rules the server must enforce."""

import asyncio
import struct

import pytest

from repro.transport.base import TransportError
from repro.transport.tcp import CLIENT_READ_LIMIT
from repro.transport.websocket import (
    _OP_BINARY,
    _OP_CONT,
    _OP_PING,
    _OP_PONG,
    _OP_TEXT,
    WebSocketTransport,
    accept_key,
)


def test_accept_key_matches_the_rfc_6455_vector():
    # The worked example of RFC 6455 §1.3.
    assert (
        accept_key("dGhlIHNhbXBsZSBub25jZQ==")
        == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
    )


def _masked_frame(opcode: int, payload: bytes, fin: bool = True) -> bytes:
    """Hand-rolled client frame with a fixed mask (tests are deterministic)."""
    mask = b"\x01\x02\x03\x04"
    head = bytearray([(0x80 if fin else 0x00) | opcode])
    length = len(payload)
    if length < 126:
        head.append(0x80 | length)
    else:
        head.append(0x80 | 126)
        head += struct.pack("!H", length)
    body = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return bytes(head) + mask + body


async def _scenario(client_script, server_reads: int):
    """One upgraded connection; ``client_script(session)`` drives the
    client side while the server tries ``server_reads`` receives."""
    transport = WebSocketTransport()
    results: list = []
    done = asyncio.Event()

    async def handle(reader, writer):
        session = await transport.accept(reader, writer, "ingest")
        assert session is not None
        for _ in range(server_reads):
            try:
                results.append(await session.receive())
            except TransportError as exc:
                results.append(exc)
                break
        await session.close()
        done.set()

    server = await asyncio.start_server(
        handle, "127.0.0.1", 0, limit=CLIENT_READ_LIMIT
    )
    port = server.sockets[0].getsockname()[1]
    client = await transport.connect("127.0.0.1", port, "ingest")
    await client_script(client)
    await asyncio.wait_for(done.wait(), 10)
    await client.close()
    server.close()
    await server.wait_closed()
    return results


class TestControlFrames:
    def test_ping_is_answered_with_pong(self):
        async def script(client):
            client._write_frame(_OP_PING, b"heartbeat")
            await client.writer.drain()
            # The pong must come back before any application traffic.
            opcode, fin, payload = await client._read_frame()
            assert (opcode, fin, payload) == (_OP_PONG, True, b"heartbeat")
            await client.send("after-ping")

        results = asyncio.run(_scenario(script, server_reads=1))
        assert results == ["after-ping"]

    def test_close_is_echoed_and_surfaces_as_eof(self):
        async def script(client):
            await client.close()

        results = asyncio.run(_scenario(script, server_reads=1))
        assert results == [None]


class TestFraming:
    def test_fragmented_message_is_reassembled(self):
        async def script(client):
            client.writer.write(
                _masked_frame(_OP_TEXT, "mari".encode(), fin=False)
                + _masked_frame(_OP_CONT, "time".encode(), fin=True)
            )
            await client.writer.drain()

        assert asyncio.run(_scenario(script, server_reads=1)) == ["maritime"]

    def test_binary_frames_are_refused(self):
        async def script(client):
            client._write_frame(_OP_BINARY, b"\x00\x01")
            await client.writer.drain()

        (outcome,) = asyncio.run(_scenario(script, server_reads=1))
        assert isinstance(outcome, TransportError)

    def test_unmasked_client_frame_is_a_protocol_error(self):
        async def script(client):
            # RFC 6455 §5.1: the server MUST fail unmasked client frames.
            client.mask_outgoing = False
            await client.send("bare")

        (outcome,) = asyncio.run(_scenario(script, server_reads=1))
        assert isinstance(outcome, TransportError)

    def test_continuation_without_a_message_is_a_protocol_error(self):
        async def script(client):
            client.writer.write(_masked_frame(_OP_CONT, b"orphan", fin=True))
            await client.writer.drain()

        (outcome,) = asyncio.run(_scenario(script, server_reads=1))
        assert isinstance(outcome, TransportError)


class TestHandshake:
    def test_upgrade_refused_raises_client_side(self):
        async def run():
            # A plain TCP sink never answers 101.
            async def handle(reader, writer):
                await reader.read(1024)
                writer.write(b"HTTP/1.1 404 Not Found\r\n\r\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(TransportError, match="refused"):
                    await WebSocketTransport().connect(
                        "127.0.0.1", port, "feed"
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /feed HTTP/1.1\r\nUpgrade: websoc",  # peer hangs up mid-head
            b"GET /feed HTTP/1.1\r\nX-Pad: " + b"a" * 1024,  # outgrows the limit
        ],
        ids=["eof", "over-limit"],
    )
    def test_truncated_upgrade_is_a_failed_handshake_server_side(self, head):
        """``accept`` answers ``None`` (the server counts it and closes)
        instead of letting the stream error escape the connection task."""

        async def run():
            outcome: list = []
            done = asyncio.Event()

            async def handle(reader, writer):
                try:
                    outcome.append(
                        await WebSocketTransport().accept(
                            reader, writer, "ingest"
                        )
                    )
                except Exception as exc:  # the failure under test
                    outcome.append(exc)
                writer.close()
                done.set()

            server = await asyncio.start_server(
                handle, "127.0.0.1", 0, limit=256
            )
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(head)
            await writer.drain()
            writer.close()
            await asyncio.wait_for(done.wait(), 10)
            server.close()
            await server.wait_closed()
            return outcome

        assert asyncio.run(run()) == [None]

    def test_truncated_upgrade_reply_raises_client_side(self):
        async def run():
            async def handle(reader, writer):
                await reader.read(1024)
                writer.write(b"HTTP/1.1 101 Switching Pro")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(TransportError, match="cut short"):
                    await WebSocketTransport().connect(
                        "127.0.0.1", port, "feed"
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

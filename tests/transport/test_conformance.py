"""The transport conformance suite.

Every adapter — present and future — must move discrete text messages
with boundaries and bytes preserved exactly, in both the ``ingest``
(client→server) and ``feed`` (server→client) direction.  The suite is
parameterized over :func:`available_transports`, so adding a transport
automatically holds it to the same contract.
"""

import asyncio

import pytest

from repro.transport import available_transports, create_transport
from repro.transport.tcp import CLIENT_READ_LIMIT

#: Messages every transport must carry untouched: plain NMEA, JSON with
#: separators, the empty message, unicode outside latin-1, and a line
#: two orders of magnitude past the default 64 KiB stream limit.
MESSAGES = [
    "!AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,0*24",
    '{"type":"slide","query_time":60,"alerts":[]}',
    "",
    "tab\tseparated\tfields",
    "ünïcødé ✓ 海事監視",
    "x" * 262144,
]


@pytest.fixture(params=available_transports())
def transport(request):
    return create_transport(request.param)


def _base_name(transport) -> str:
    """The wrapped wire protocol: chaos variants inherit its contract
    (an unarmed chaos wrapper is a pure pass-through)."""
    return transport.name.removeprefix("chaos+")


async def _serve(handler):
    server = await asyncio.start_server(
        handler, "127.0.0.1", 0, limit=CLIENT_READ_LIMIT
    )
    return server, server.sockets[0].getsockname()[1]


async def _ingest_roundtrip(transport, messages):
    """Client sends ``messages`` over an ingest session; returns what the
    server-side session yielded."""
    received: list[str] = []
    done = asyncio.Event()

    async def handle(reader, writer):
        session = await transport.accept(reader, writer, "ingest")
        if session is None:
            writer.close()
            return
        while True:
            line = await session.receive()
            if line is None:
                break
            received.append(line)
        await session.close()
        done.set()

    server, port = await _serve(handle)
    client = await transport.connect("127.0.0.1", port, "ingest")
    for message in messages:
        await client.send(message)
    await client.close()
    await asyncio.wait_for(done.wait(), 10)
    server.close()
    await server.wait_closed()
    return received


async def _batch_roundtrip(transport, batches):
    """Client sends each of ``batches`` with one ``send_many``; returns
    every message the server-side ``receive_many`` calls yielded."""
    received: list[str] = []
    done = asyncio.Event()

    async def handle(reader, writer):
        session = await transport.accept(reader, writer, "ingest")
        if session is None:
            writer.close()
            return
        while lines := await session.receive_many():
            received.extend(lines)
        await session.close()
        done.set()

    server, port = await _serve(handle)
    client = await transport.connect("127.0.0.1", port, "ingest")
    for batch in batches:
        await client.send_many(batch)
    await client.close()
    await asyncio.wait_for(done.wait(), 10)
    server.close()
    await server.wait_closed()
    return received


async def _feed_roundtrip(transport, messages):
    """Server sends ``messages`` over a feed session; returns what the
    client-side session yielded."""

    async def handle(reader, writer):
        session = await transport.accept(reader, writer, "feed")
        if session is None:
            writer.close()
            return
        for message in messages:
            await session.send(message)
        await session.close()

    server, port = await _serve(handle)
    client = await transport.connect("127.0.0.1", port, "feed")
    received = []
    while True:
        line = await client.receive()
        if line is None:
            break
        received.append(line)
    await client.close()
    server.close()
    await server.wait_closed()
    return received


class TestConformance:
    def test_ingest_messages_roundtrip_exactly(self, transport):
        received = asyncio.run(_ingest_roundtrip(transport, MESSAGES))
        assert received == MESSAGES

    def test_feed_messages_roundtrip_exactly(self, transport):
        received = asyncio.run(_feed_roundtrip(transport, MESSAGES))
        assert received == MESSAGES

    def test_message_order_survives_volume(self, transport):
        messages = [f"line-{index:05d}" for index in range(1000)]
        assert asyncio.run(_ingest_roundtrip(transport, messages)) == messages

    def test_batches_roundtrip_exactly(self, transport):
        """``send_many`` → ``receive_many`` carries the same messages, in
        order, as one ``send`` → ``receive`` at a time."""
        volume = [f"line-{index:05d}" for index in range(1000)]
        batches = [MESSAGES, [], volume[:1], volume[1:], MESSAGES[::-1]]
        expected = [message for batch in batches for message in batch]
        assert asyncio.run(_batch_roundtrip(transport, batches)) == expected

    def test_clean_goodbye_is_eof_not_error(self, transport):
        # A client that connects and hangs up without sending anything is
        # ordinary teardown: the server session sees end-of-stream.
        assert asyncio.run(_ingest_roundtrip(transport, [])) == []

    def test_connect_rejects_unknown_mode(self, transport):
        async def run():
            await transport.connect("127.0.0.1", 1, "broadcast")

        with pytest.raises(ValueError, match="mode"):
            asyncio.run(run())

    def test_garbage_handshake_yields_none_not_crash(self, transport):
        """A non-speaker of the protocol must be turned away as a counted
        handshake failure (``accept`` → ``None``), never an exception."""
        if _base_name(transport) == "tcp":
            pytest.skip("raw TCP has no handshake to fail")

        async def run():
            outcome: list = []
            done = asyncio.Event()

            async def handle(reader, writer):
                outcome.append(
                    await transport.accept(reader, writer, "ingest")
                )
                writer.close()
                done.set()

            server, port = await _serve(handle)
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"NOT A HANDSHAKE\r\n\r\n")
            await writer.drain()
            writer.close()
            await asyncio.wait_for(done.wait(), 10)
            server.close()
            await server.wait_closed()
            return outcome

        assert asyncio.run(run()) == [None]

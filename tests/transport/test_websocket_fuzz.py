"""Fuzz the RFC 6455 frame reader behind ``receive_many``.

Any bytes a peer sends after the upgrade — well-formed frames, frames
with lying lengths, unmasked or unknown opcodes, fragments out of
place, cut anywhere — must come out as messages, end-of-stream, or a
:class:`~repro.transport.base.TransportError`, never another exception.
The ingest listener must survive every byte sequence, count each
rejected connection once as ``service.ingest.protocol_errors`` and
account for every message it did read.
"""

import asyncio
import base64
import struct

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.service.ingest import IngestQueue, IngestServer
from repro.transport.base import TransportError
from repro.transport.websocket import (
    MAX_MESSAGE_BYTES,
    WebSocketSession,
    WebSocketTransport,
)

EXAMPLES = settings(max_examples=150, deadline=None)

HANDSHAKE = (
    "GET /ingest HTTP/1.1\r\nHost: fuzz\r\nUpgrade: websocket\r\n"
    "Connection: Upgrade\r\nSec-WebSocket-Key: "
    + base64.b64encode(b"0123456789abcdef").decode("ascii")
    + "\r\nSec-WebSocket-Version: 13\r\n\r\n"
).encode("ascii")


class SinkWriter:
    """A stream-writer stand-in that keeps what the session writes."""

    def __init__(self) -> None:
        self.written = bytearray()

    def write(self, data: bytes) -> None:
        self.written += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass

    def get_extra_info(self, name, default=None):
        return ("fuzz", 0) if name == "peername" else default


@st.composite
def frames(draw) -> bytes:
    """One frame: any opcode and flags, a 7-, 16- or 64-bit length that
    may lie about the payload, masked or not."""
    first = draw(st.sampled_from([0x0, 0x1, 0x2, 0x8, 0x9, 0xA]) | st.integers(0, 15))
    first |= draw(st.sampled_from([0x80, 0x00]))
    payload = draw(st.binary(max_size=200) | st.text(max_size=60).map(str.encode))
    length = draw(
        st.just(len(payload))
        | st.integers(0, 300)
        | st.sampled_from([MAX_MESSAGE_BYTES, MAX_MESSAGE_BYTES + 1, 2**64 - 1])
    )
    mask_bit = draw(st.sampled_from([0x80, 0x80, 0x00]))
    form = draw(st.sampled_from(["7", "16", "64"]))
    if form == "7" and length < 126:
        head = bytes([first, mask_bit | length])
    elif form == "16" and length < 1 << 16:
        head = bytes([first, mask_bit | 126]) + struct.pack("!H", length)
    else:
        head = bytes([first, mask_bit | 127]) + struct.pack("!Q", length)
    if mask_bit:
        mask = draw(st.binary(min_size=4, max_size=4))
        payload = mask + bytes(byte ^ mask[i % 4] for i, byte in enumerate(payload))
    return head + payload


@st.composite
def wires(draw) -> bytes:
    """Frames back to back, or raw bytes, cut anywhere."""
    data = b"".join(draw(st.lists(frames(), max_size=6))) + draw(st.binary(max_size=8))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


def read_all(data: bytes) -> tuple[list[str], bool]:
    """Every message the server side reads from ``data``, and whether it
    stopped on a protocol error."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        session = WebSocketSession(reader, SinkWriter(), mask_outgoing=False)
        messages: list[str] = []
        try:
            while batch := await session.receive_many():
                messages += batch
        except TransportError:
            return messages, True
        return messages, False

    return asyncio.run(run())


@EXAMPLES
@given(data=wires())
def test_ingest_server_survives_and_counts_every_rejection(data):
    # The reader alone: messages, then end-of-stream or a protocol error.
    messages, rejected = read_all(data)
    assert all(isinstance(message, str) for message in messages)

    async def serve():
        reader = asyncio.StreamReader()
        reader.feed_data(HANDSHAKE + data)
        reader.feed_eof()
        queue = IngestQueue(capacity=1000)
        server = IngestServer(queue, "127.0.0.1", 0, transport=WebSocketTransport())
        await server._handle(reader, SinkWriter())
        return queue, server.open_connections

    with obs.activate(obs.MetricsRegistry()) as registry:
        queue, still_open = asyncio.run(serve())
    assert still_open == 0
    assert registry.counter("service.ingest.protocol_errors").value == rejected
    assert registry.counter("service.ingest.bytes").value == sum(
        len(message) + 1 for message in messages
    )
    assert queue.put_count + registry.counter("service.ingest.ignored").value == len(
        messages
    )

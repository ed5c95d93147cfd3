"""Fuzz the HTTP-forward ingest reader behind ``receive_many``.

Any bytes a client sends — ``POST`` batches and other methods, a
``Content-Length`` that is missing, not an integer, negative, too large
or lying about the body, requests back to back, cut anywhere — must come
out as messages, end-of-stream, or a
:class:`~repro.transport.base.TransportError`, never another exception.
The ingest listener must survive every byte sequence, count each
rejected connection once as ``service.ingest.protocol_errors`` and
account for every message it did read.
"""

import asyncio

from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.service.ingest import IngestQueue, IngestServer
from repro.transport.base import TransportError
from repro.transport.httpforward import (
    MAX_BODY_BYTES,
    HttpForwardTransport,
    HttpIngestServerSession,
)
from tests.transport.test_websocket_fuzz import SinkWriter

EXAMPLES = settings(max_examples=150, deadline=None)

#: Header-line text: anything but the CRLF that would end the line.
_LINE_TEXT = st.text(max_size=30).filter(lambda text: "\r" not in text and "\n" not in text)


@st.composite
def requests(draw) -> bytes:
    """One request: any start line, a ``Content-Length`` that may be
    missing, malformed, negative, oversized or lying, any body."""
    start = draw(
        st.sampled_from(["POST /ingest HTTP/1.1", "GET /ingest HTTP/1.1", ""])
        | _LINE_TEXT
    )
    body = draw(st.binary(max_size=200) | st.text(max_size=80).map(str.encode))
    length = draw(
        st.just(str(len(body)))
        | st.integers(-300, 300).map(str)
        | st.sampled_from(
            ["", "abc", "1.5", "0x10", " 7 ", "1e3", str(MAX_BODY_BYTES + 1), "9" * 40]
        )
        | _LINE_TEXT
    )
    head = start + "\r\nHost: fuzz\r\n"
    if draw(st.booleans()):
        head += f"Content-Length: {length}\r\n"
    return (head + "\r\n").encode("utf-8") + body


@st.composite
def wires(draw) -> bytes:
    """Requests back to back, or raw bytes, cut anywhere."""
    data = b"".join(draw(st.lists(requests(), max_size=4))) + draw(st.binary(max_size=8))
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
        session = HttpIngestServerSession(reader, SinkWriter())
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
@example(data=b"POST /ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\nx\n")
@example(data=b"POST /ingest HTTP/1.1\r\nContent-Length: -1\r\n\r\nx\n")
@example(data=b"POST /ingest HTTP/1.1\r\nContent-Length: 9\r\n\r\nx\n")
def test_ingest_server_survives_and_counts_every_rejection(data):
    # The reader alone: messages, then end-of-stream or a protocol error.
    messages, rejected = read_all(data)
    assert all(isinstance(message, str) for message in messages)

    async def serve():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        queue = IngestQueue(capacity=1000)
        server = IngestServer(queue, "127.0.0.1", 0, transport=HttpForwardTransport())
        await server._handle(reader, SinkWriter())
        return queue, server.connections[0]

    with obs.activate(obs.MetricsRegistry()) as registry:
        queue, connection = asyncio.run(serve())
    assert connection.closed
    assert registry.counter("service.ingest.protocol_errors").value == rejected
    assert connection.lines == len(messages)
    assert queue.put_count + registry.counter("service.ingest.ignored").value == len(
        messages
    )


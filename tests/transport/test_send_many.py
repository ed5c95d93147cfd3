"""Where a failed ``send_many`` stopped: its ``TransportError.sent``.

A caller retrying a batch resends from ``sent``, so each adapter must
count exactly the messages it sent before the failure: the default loop
the ``send`` calls that returned, the chaos wrapper the messages before
the one its fault site dropped, TCP the lines the kernel took whole.
"""

import asyncio
import socket
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.transport.base import TransportError, TransportSession
from repro.transport.chaosnet import ChaosProfile, ChaosSession
from repro.transport.tcp import TcpSession

texts = st.lists(st.text(alphabet="abc!,*", max_size=8), min_size=1, max_size=12)


class LoopSession(TransportSession):
    """Uses the default ``send_many``; its ``send`` fails at ``fail_at``."""

    def __init__(self, fail_at: int | None = None):
        self.fail_at = fail_at
        self.sent: list[str] = []

    async def receive(self) -> str | None:
        return None

    async def send(self, text: str) -> None:
        if len(self.sent) == self.fail_at:
            raise TransportError("peer gone")
        self.sent.append(text)

    async def close(self) -> None:
        pass


@settings(max_examples=100, deadline=None)
@given(texts=texts, data=st.data())
def test_default_loop_counts_the_sends_that_returned(texts, data):
    fail_at = data.draw(st.integers(min_value=0, max_value=len(texts) - 1))
    session = LoopSession(fail_at)
    with pytest.raises(TransportError) as info:
        asyncio.run(session.send_many(texts))
    assert info.value.sent == fail_at
    assert session.sent == texts[:fail_at]


@settings(max_examples=100, deadline=None)
@given(texts=texts, data=st.data())
def test_chaos_drop_writes_the_messages_before_it(texts, data):
    """A ``chaosnet.send`` drop at message k writes messages 0..k-1 and
    fails with ``sent`` k, as k single sends and a failed one would."""
    drop_at = data.draw(st.integers(min_value=0, max_value=len(texts) - 1))
    inner = LoopSession()
    session = ChaosSession(inner, ChaosProfile())
    with faults.inject(FaultPlan.from_spec(f"chaosnet.send:drop@{drop_at + 1}")):
        with pytest.raises(TransportError) as info:
            asyncio.run(session.send_many(texts))
    assert info.value.sent == drop_at
    assert inner.sent == texts[:drop_at]


class StubTransport:
    """What ``TcpSession.send_many`` reads of an asyncio write transport,
    with asyncio's write rule: into a non-empty buffer a write only
    appends; into an empty one the kernel takes ``kernel_takes`` bytes
    and the rest is buffered; a closing transport discards the write."""

    def __init__(self, kernel_takes: int, buffered: int = 0, closing: bool = False):
        self.kernel_takes = kernel_takes
        self.buffer = buffered
        self.closing = closing
        self.kernel = b""

    def get_write_buffer_size(self) -> int:
        return self.buffer

    def is_closing(self) -> bool:
        return self.closing


class StubWriter:
    """A writer over :class:`StubTransport` whose drain finds the
    connection lost."""

    def __init__(self, transport: StubTransport):
        self.transport = transport

    def write(self, data: bytes) -> None:
        transport = self.transport
        if transport.closing:
            return
        if transport.buffer:
            transport.buffer += len(data)
            return
        transport.kernel += data[: transport.kernel_takes]
        transport.buffer = len(data) - len(transport.kernel)

    async def drain(self) -> None:
        raise ConnectionResetError("Connection lost")


def _tcp_send_failure(transport: StubTransport, lines: list[str]) -> int:
    session = TcpSession(None, StubWriter(transport))
    with pytest.raises(TransportError) as info:
        asyncio.run(session.send_many(lines))
    return info.value.sent


@settings(max_examples=200, deadline=None)
@given(texts=texts, data=st.data())
def test_tcp_counts_the_lines_the_kernel_took_whole(texts, data):
    size = len(("\n".join(texts) + "\n").encode("utf-8"))
    takes = data.draw(st.integers(min_value=0, max_value=size))
    transport = StubTransport(takes)
    sent = _tcp_send_failure(transport, texts)
    assert transport.kernel.count(b"\n") == sent
    assert transport.kernel.startswith(("".join(f"{t}\n" for t in texts[:sent])).encode())


def test_tcp_behind_a_buffered_write_nothing_was_taken():
    assert _tcp_send_failure(StubTransport(100, buffered=7), ["alpha", "beta"]) == 0


def test_tcp_on_a_closing_transport_nothing_was_taken():
    assert _tcp_send_failure(StubTransport(100, closing=True), ["alpha", "beta"]) == 0


def test_tcp_to_a_reset_peer_sends_nothing():
    """Over a real socket: the peer reset the connection before the
    write, so the batch fails with ``sent`` 0."""

    async def run():
        reset = asyncio.Event()

        async def handle(reader, writer):
            sock = writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            writer.close()
            reset.set()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await reset.wait()
        try:
            assert await reader.read() == b""
        except ConnectionResetError:
            pass
        session = TcpSession(reader, writer)
        try:
            with pytest.raises(TransportError) as info:
                await session.send_many(["alpha", "beta"])
            return info.value.sent
        finally:
            await session.close()
            server.close()
            await server.wait_closed()

    assert asyncio.run(run()) == 0

"""Ingest listener: many feed clients, one bounded queue, explicit shedding.

The listener accepts raw ``!AIVDM`` lines (optionally timestamp-prefixed,
see :mod:`repro.service.protocol`) from any number of concurrent
connections and pushes them into one :class:`IngestQueue` shared with the
slide batcher.  Line framing is delegated to a pluggable
:class:`~repro.transport.base.Transport` (newline TCP by default,
WebSocket or HTTP-forward via ``ServiceConfig.ingest_transport``), read
a batch per wakeup (:meth:`~repro.transport.base.TransportSession.receive_many`:
one socket read, split once), parsed with one
:func:`~repro.service.protocol.parse_ingest_lines` — the fault site and
the counters still see every line — and queued with one
:meth:`IngestQueue.put_many`.  The queue is strictly bounded: when producers outrun the
pipeline the *oldest* buffered sentence is dropped — fresh positions are
worth more than stale ones for surveillance — and every shed sentence is
counted in the observability registry (``service.ingest.shed``).  Nothing
is ever lost silently.
"""

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.resilience.faults import fault_point
from repro.service.protocol import parse_ingest_lines
from repro.transport.base import Transport, TransportError
from repro.transport.tcp import CLIENT_READ_LIMIT, TcpTransport

#: One buffered sentence: (receive_time, sentence, enqueue_perf_counter).
IngestItem = tuple[int, str, float]


@dataclass
class ConnectionStats:
    """Per-connection ingest accounting, kept for the lifetime of the server."""

    peer: str
    lines: int = 0
    bytes: int = 0
    opened_at: float = field(default_factory=time.time)
    closed: bool = False


class IngestQueue:
    """Bounded FIFO between socket readers and the pipeline.

    Puts never block: beyond ``capacity`` buffered items the oldest are
    shed and counted.  A socket read's lines arrive in one
    :meth:`put_many`, and the batcher takes everything buffered in one
    :meth:`get_many`, which returns ``[]`` once the queue is both closed
    and drained — the end-of-stream signal.  :meth:`put` and :meth:`get`
    are the one-item forms.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"queue capacity must be positive: {capacity}")
        self.capacity = capacity
        self._items: deque[IngestItem] = deque()
        #: Items the latest :meth:`get_many` handed over.
        self._in_hand = 0
        self._ready = asyncio.Event()
        self._closed = False
        self.shed_count = 0
        self.put_count = 0

    def put(self, receive_time: int, sentence: str) -> None:
        """Enqueue one sentence, shedding the oldest on overflow."""
        self.put_many([(receive_time, sentence)])

    def put_many(self, sentences: list[tuple[int, str]]) -> None:
        """Enqueue ``(receive_time, sentence)`` pairs in order, shedding
        the oldest on overflow exactly as one :meth:`put` each would."""
        if not sentences:
            return
        if self._closed:
            # A draining service refuses new input — counted, not silent.
            obs.count("service.ingest.dropped_after_close", len(sentences))
            return
        enqueued_at = time.perf_counter()
        self._items.extend(
            [(receive_time, sentence, enqueued_at) for receive_time, sentence in sentences]
        )
        self.put_count += len(sentences)
        overflow = len(self._items) - self.capacity
        if overflow > 0:
            for _ in range(overflow):
                self._items.popleft()
            self.shed_count += overflow
            obs.count("service.ingest.shed", overflow)
        self._ready.set()

    async def get(self) -> IngestItem | None:
        """The next buffered item, or ``None`` at end-of-stream."""
        while not self._items:
            if self._closed:
                return None
            await self._ready.wait()
        item = self._items.popleft()
        if not self._items:
            self._ready.clear()
        return item

    async def get_many(self) -> list[IngestItem]:
        """Every buffered item, oldest first, once there is one; ``[]``
        at end-of-stream.

        The items count in ``len()`` until the next call: the batcher
        asks again only once it has consumed them, so a depth of 0 means
        the pipeline has taken in every queued sentence.
        """
        self._in_hand = 0
        while not self._items:
            if self._closed:
                return []
            await self._ready.wait()
        items = list(self._items)
        self._items.clear()
        self._ready.clear()
        self._in_hand = len(items)
        return items

    def close(self) -> None:
        """No more puts; pending items still drain through ``get``."""
        self._closed = True
        self._ready.set()

    def __len__(self) -> int:
        """Sentences not yet consumed: buffered, plus the hand-over the
        batcher is still working through."""
        return len(self._items) + self._in_hand


class IngestServer:
    """The ``!AIVDM`` line listener feeding the shared ingest queue."""

    def __init__(
        self,
        queue: IngestQueue,
        host: str,
        port: int,
        clock=None,
        transport: Transport | None = None,
    ):
        self.queue = queue
        self.host = host
        self.port = port
        self._clock = clock or (lambda: int(time.time()))
        self.transport = transport or TcpTransport()
        self._server: asyncio.base_events.Server | None = None
        self.connections: list[ConnectionStats] = []

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=CLIENT_READ_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        stats = ConnectionStats(peer=str(peername))
        self.connections.append(stats)
        obs.count("service.ingest.connections")
        session = await self.transport.accept(reader, writer, "ingest")
        if session is None:
            # Handshake failure (bad upgrade request, truncated head):
            # counted so a misconfigured client is visible, then closed.
            obs.count("service.ingest.handshake_failures")
            stats.closed = True
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return
        try:
            while True:
                try:
                    lines = await session.receive_many()
                except TransportError:
                    # A protocol violation mid-stream is indistinguishable
                    # from a corrupted link: counted, connection dropped.
                    obs.count("service.ingest.protocol_errors")
                    break
                if not lines or not self._take(lines, stats):
                    break
        finally:
            stats.closed = True
            await session.close()

    def _take(self, lines: list[str], stats: ConnectionStats) -> bool:
        """Queue one batch of lines with one put; ``False`` when an
        injected drop severed the connection partway."""
        now = self._clock()
        taken = len(lines)
        for index in range(taken):
            spec = fault_point("service.ingest.socket")
            if spec is not None and spec.kind == "drop":
                # Injected connection drop: sever mid-stream, exactly
                # like an upstream feed dying.  The client sees EOF
                # and is expected to reconnect and resend.
                obs.count("service.ingest.injected_drops")
                taken = index
                break
        read = lines[:taken]
        stats.lines += taken
        stats.bytes += sum(map(len, read)) + taken
        parsed = parse_ingest_lines(read, now)
        self.queue.put_many(parsed)
        if taken > len(parsed):
            # Blank/comment/garbled lines are skipped by design, but never
            # invisibly: operators distinguish a quiet feed from one
            # sending junk by this counter.
            obs.count("service.ingest.ignored", taken - len(parsed))
        if parsed:
            obs.count("service.ingest.lines", len(parsed))
        return taken == len(lines)

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def open_connections(self) -> int:
        return sum(1 for stats in self.connections if not stats.closed)

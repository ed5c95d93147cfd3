"""Ingest listener: many feed clients, one bounded queue, explicit shedding.

The listener accepts raw ``!AIVDM`` lines (optionally timestamp-prefixed,
see :mod:`repro.service.protocol`) from any number of concurrent
connections and pushes them into one :class:`IngestQueue` shared with the
slide batcher.  Line framing is delegated to a pluggable
:class:`~repro.transport.base.Transport` (newline TCP by default,
WebSocket or HTTP-forward via ``ServiceConfig.ingest_transport``), read
a batch per wakeup (:meth:`~repro.transport.base.TransportSession.receive_many`:
one socket read, split once) and handled line by line — the fault site,
the counters and the queue see every line as before.  The queue is strictly bounded: when producers outrun the
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
from repro.service.protocol import parse_ingest_line
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

    ``put`` never blocks: beyond ``capacity`` the oldest item is shed and
    counted.  ``get`` awaits the next item and returns ``None`` once the
    queue is both closed and drained — the batcher's end-of-stream signal.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"queue capacity must be positive: {capacity}")
        self.capacity = capacity
        self._items: deque[IngestItem] = deque()
        self._ready = asyncio.Event()
        self._closed = False
        self.shed_count = 0
        self.put_count = 0

    def put(self, receive_time: int, sentence: str) -> None:
        """Enqueue one sentence, shedding the oldest on overflow."""
        if self._closed:
            # A draining service refuses new input — counted, not silent.
            obs.count("service.ingest.dropped_after_close")
            return
        self._items.append((receive_time, sentence, time.perf_counter()))
        self.put_count += 1
        if len(self._items) > self.capacity:
            self._items.popleft()
            self.shed_count += 1
            obs.count("service.ingest.shed")
        self._ready.set()

    async def get(self) -> IngestItem | None:
        """The next buffered item, or ``None`` at end-of-stream."""
        while True:
            if self._items:
                item = self._items.popleft()
                if not self._items:
                    self._ready.clear()
                return item
            if self._closed:
                return None
            await self._ready.wait()

    def close(self) -> None:
        """No more puts; pending items still drain through ``get``."""
        self._closed = True
        self._ready.set()

    def __len__(self) -> int:
        return len(self._items)


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
        """Queue one batch of lines; ``False`` when an injected drop
        severed the connection partway."""
        now = self._clock()
        queued = ignored = 0
        severed = False
        for line in lines:
            spec = fault_point("service.ingest.socket")
            if spec is not None and spec.kind == "drop":
                # Injected connection drop: sever mid-stream, exactly
                # like an upstream feed dying.  The client sees EOF
                # and is expected to reconnect and resend.
                obs.count("service.ingest.injected_drops")
                severed = True
                break
            stats.lines += 1
            stats.bytes += len(line) + 1
            parsed = parse_ingest_line(line, now)
            if parsed is None:
                ignored += 1
                continue
            queued += 1
            self.queue.put(*parsed)
        if ignored:
            # Blank/comment/garbled lines are skipped by design, but never
            # invisibly: operators distinguish a quiet feed from one
            # sending junk by this counter.
            obs.count("service.ingest.ignored", ignored)
        if queued:
            obs.count("service.ingest.lines", queued)
        return not severed

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def open_connections(self) -> int:
        return sum(1 for stats in self.connections if not stats.closed)

"""The subscription feed: one JSON line per slide, slow consumers evicted.

Every completed slide publishes one JSON line (alerts + fresh critical
points, see :mod:`repro.service.protocol`) to every connected subscriber.
Each subscriber owns a bounded outbound queue drained by its own writer
task; a subscriber whose queue fills up — it stopped reading, or its link
is too slow — is evicted (connection closed, ``service.feed.evicted``
incremented) so one stuck client can never stall the pipeline or grow
memory. The paper's monitor is push-based for exactly this surface:
"critical points and complex events are emitted as they happen".

Message framing is delegated to a pluggable
:class:`~repro.transport.base.Transport`: the default newline-over-TCP
wire is byte-compatible with the pre-transport feed, while WebSocket
subscribers get one text frame per line
(``ServiceConfig.feed_transport``).

**Resumable subscriptions** (docs/SERVICE.md): every published line gets
a monotonic sequence number backed by a bounded replay ring.  A
subscriber that opens with the ``RESUME <last-seq>`` handshake (sent as
its first line) is switched to *stamped* delivery —
``<seq>\\t<payload>`` — and first receives every ring-held line after
``last-seq``, so a client that reconnects after an eviction or a
network fault resumes gapless.  Lines
evicted from the ring before the resume are counted
(``service.feed.resume_gap_lines``), never silently skipped.
Subscribers that send nothing get the classic unstamped feed, byte for
byte — resumability is strictly opt-in so the byte-identity contract of
the plain feed is untouched.
"""

import asyncio
import contextlib
from collections import deque

from repro import obs
from repro.service.protocol import format_stamped_line, parse_resume
from repro.transport.base import Transport, TransportError, TransportSession
from repro.transport.tcp import CLIENT_READ_LIMIT, TcpTransport


#: Queue marker that wakes the writer to check its replay buffer.
_NUDGE = object()


class _Subscriber:
    """One connected feed client with its bounded outbound queue."""

    def __init__(self, session: TransportSession, queue_size: int):
        self.session = session
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.task: asyncio.Task | None = None
        #: Reader task awaiting an optional ``RESUME`` handshake line.
        self.watcher: asyncio.Task | None = None
        #: True once the subscriber resumed: lines arrive seq-stamped.
        self.stamped = False
        #: Stamped ring-replay lines, sent ahead of anything queued.  A
        #: separate staging buffer (bounded by the ring size) so a resume
        #: gap larger than the live queue can still be recovered.
        self.replay: deque[str] = deque()
        self.evicted = False

    async def run(self) -> None:
        """Drain the replay buffer, then the queue, until closed/evicted."""
        try:
            while True:
                while self.replay:
                    await self.session.send(self.replay.popleft())
                line = await self.queue.get()
                if line is None:
                    break
                if line is _NUDGE:
                    continue
                await self.session.send(line)
        except (TransportError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            await self.session.close()


class FeedHub:
    """Fan-out of feed lines to all live subscribers."""

    def __init__(
        self,
        host: str,
        port: int,
        queue_size: int = 256,
        transport: Transport | None = None,
        replay_ring: int = 1024,
    ):
        if replay_ring < 1:
            raise ValueError(f"replay_ring must be >= 1: {replay_ring}")
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.transport = transport or TcpTransport()
        self._server: asyncio.base_events.Server | None = None
        self._subscribers: set[_Subscriber] = set()
        self.evicted_count = 0
        #: Sequence number the *next* published line will carry (1-based).
        self.next_seq = 1
        #: The replay ring: the last ``replay_ring`` published lines with
        #: their sequence numbers, the source of ``RESUME`` replays.
        self._ring: deque[tuple[int, str]] = deque(maxlen=replay_ring)
        self.resumed_count = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=CLIENT_READ_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = await self.transport.accept(reader, writer, "feed")
        if session is None:
            obs.count("service.feed.handshake_failures")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return
        subscriber = _Subscriber(session, self.queue_size)
        self._subscribers.add(subscriber)
        obs.count("service.feed.subscribers")
        obs.set_gauge("service.feed.active_subscribers", len(self._subscribers))
        subscriber.task = asyncio.current_task()
        # A subscriber may send one ``RESUME <seq>`` line; one that never
        # writes stays on the classic unstamped feed (the watcher then
        # idles until disconnect).
        subscriber.watcher = asyncio.ensure_future(
            self._watch_resume(subscriber)
        )
        try:
            # The handler itself is the writer task; aside from the
            # optional resume handshake, subscribers never send
            # application data.
            await subscriber.run()
        finally:
            if subscriber.watcher is not None:
                subscriber.watcher.cancel()
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await subscriber.watcher
            self._subscribers.discard(subscriber)
            obs.set_gauge(
                "service.feed.active_subscribers", len(self._subscribers)
            )

    async def _watch_resume(self, subscriber: _Subscriber) -> None:
        """Await one optional ``RESUME`` handshake line from a subscriber."""
        try:
            line = await subscriber.session.receive()
        except (TransportError, ConnectionResetError, OSError):
            return
        if line is None:
            return
        since_seq = parse_resume(line)
        if since_seq is None:
            obs.count("service.feed.bad_handshakes")
            return
        self._resume(subscriber, since_seq)

    def _resume(self, subscriber: _Subscriber, since_seq: int) -> None:
        """Switch a subscriber to stamped delivery, replaying the ring.

        Runs synchronously on the event loop, so the switch is atomic
        with respect to :meth:`publish`: no line can slip between the
        ring replay and the first live stamped line.
        """
        if subscriber.evicted:
            return
        subscriber.stamped = True
        self.resumed_count += 1
        obs.count("service.feed.resumed")
        # Anything still queued unstamped is superseded by the stamped
        # replay below (those lines are in the ring too) — dropping it
        # here is deduplication, not loss.
        while not subscriber.queue.empty():
            subscriber.queue.get_nowait()
        replay = [(seq, line) for seq, line in self._ring if seq > since_seq]
        oldest_available = replay[0][0] if replay else self.next_seq
        gap = max(0, oldest_available - since_seq - 1)
        if gap:
            # Lines the ring already evicted are gone for good; counted,
            # never silent (same contract as every shed in the tree).
            obs.count("service.feed.resume_gap_lines", gap)
        subscriber.replay.extend(
            format_stamped_line(seq, line) for seq, line in replay
        )
        if replay:
            # The writer may be parked on an empty queue; wake it so the
            # replay goes out before the next live slide.  The queue was
            # just drained in this same synchronous block, so it has room.
            subscriber.queue.put_nowait(_NUDGE)

    def publish(self, line: str) -> None:
        """Queue one line to every subscriber (framing is per-transport)."""
        obs.count("service.feed.published")
        seq = self.next_seq
        self.next_seq += 1
        self._ring.append((seq, line))
        for subscriber in list(self._subscribers):
            if subscriber.evicted:
                continue
            try:
                subscriber.queue.put_nowait(
                    format_stamped_line(seq, line)
                    if subscriber.stamped
                    else line
                )
            except asyncio.QueueFull:
                self._evict(subscriber)

    def _evict(self, subscriber: _Subscriber) -> None:
        subscriber.evicted = True
        self.evicted_count += 1
        obs.count("service.feed.evicted")
        # An unsent replay is abandoned uncounted — those lines are still
        # in the ring, recoverable by the next RESUME.
        subscriber.replay.clear()
        # Unblock the writer task; anything still queued is abandoned —
        # but counted, so eviction is never silent data loss.
        dropped = 0
        while not subscriber.queue.empty():
            line = subscriber.queue.get_nowait()
            if line is _NUDGE:
                continue
            dropped += 1
        if dropped:
            obs.count("service.feed.dropped_lines", dropped)
        subscriber.queue.put_nowait(None)
        self._subscribers.discard(subscriber)

    async def close(self) -> None:
        """Flush and disconnect every subscriber, then stop listening."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        tasks = []
        for subscriber in list(self._subscribers):
            try:
                subscriber.queue.put_nowait(None)
            except asyncio.QueueFull:
                self._evict(subscriber)
            # Await the writer task either way: an evicted subscriber's
            # task still has to finish closing its socket before close()
            # returns, or shutdown leaks a task mid-write.
            if subscriber.task is not None:
                tasks.append(subscriber.task)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._subscribers.clear()

    @property
    def recent_lines(self) -> list[str]:
        """The replay ring's lines, oldest first."""
        return [line for _, line in self._ring]

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

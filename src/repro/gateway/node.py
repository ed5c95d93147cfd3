"""One gateway node: accept clients, shard sentences, emit watermarks.

A :class:`GatewayNode` is the cluster's front door.  It accepts client
connections on any registered transport, routes each sentence to the
backend runtime owning its MMSI (:mod:`repro.gateway.routing`), and
broadcasts in-band watermarks (:func:`repro.service.protocol.format_watermark`)
to *every* runtime so their slide cadence stays aligned even though each
sees only a subset of the traffic.

Sentences travel to runtimes over :class:`RuntimeLink`\\ s — bounded
send queues with the same shed-oldest contract as the ingest queue, a
``gateway.link`` fault site for chaos drills, and deterministic
reconnect backoff so a restarted runtime is rejoined transparently.
Both ends move batches: a node reads what a client has sent with one
``receive_many``, parses it with one
:func:`~repro.service.protocol.parse_ingest_lines`, routes it with one
:meth:`~repro.gateway.routing.SentenceRouter.route_many` and queues each
link's run with one :meth:`RuntimeLink.send_many`, cut only where a
watermark is due; a link sends its queued lines with one ``send_many``
per wakeup.  Fault sites, shedding and counters still act per line, and
a line stays queued — bounded, sheddable — until it is sent.
"""

import asyncio
import time
from collections import deque
from itertools import islice

from repro.ais.stream import first_query_time
from repro.gateway.health import LinkFailureDetector
from repro.gateway.routing import SentenceRouter
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import fault_point, get_injector
from repro.resilience.retry import BackoffPolicy
from repro.service.protocol import (
    format_ingest_line,
    format_watermark,
    parse_ingest_lines,
)
from repro.transport.base import Transport, TransportError, TransportSession
from repro.transport.tcp import CLIENT_READ_LIMIT

#: Re-dial schedule of a link whose runtime went away.  The *delays* are
#: seeded and capped (0.05 s doubling to a 2 s ceiling); the attempt
#: budget only applies while the link is draining — a live link re-dials
#: indefinitely at the capped cadence and lets the failure detector and
#: cluster supervisor decide the runtime's fate, instead of silently
#: discarding data after a fixed number of tries.
LINK_BACKOFF = BackoffPolicy(
    initial_seconds=0.05, multiplier=2.0, max_seconds=2.0, max_attempts=8
)

#: Most lines one ``send_many`` carries.  Lines being written are out of
#: shedding's reach, so the cap keeps a stalled write from pinning the
#: whole queue; it is about what a 64 KiB transport write buffer holds.
LINK_BATCH_LINES = 1024

#: A queued line awaiting transmission: ``(line, enqueued_at, control)``.
#: Control lines (watermarks) bypass shedding and fault injection —
#: losing one would stall a runtime's slide cadence, not lose data.
_QueuedLine = tuple[str, float, bool]


class RuntimeLink:
    """Bounded, self-healing pipe from one gateway to one runtime."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        transport: Transport,
        registry: MetricsRegistry,
        queue_size: int = 8192,
        policy: BackoffPolicy = LINK_BACKOFF,
        detector: LinkFailureDetector | None = None,
    ):
        self.name = name
        self.host = host
        self.port = port
        self.transport = transport
        self.registry = registry
        self.queue_size = queue_size
        self.policy = policy
        #: Failure detector fed by every delivery attempt; the cluster
        #: supervisor polls it to classify this link up/suspect/down.
        self.detector = detector if detector is not None else (
            LinkFailureDetector()
        )
        #: Re-dials attempted over this link's lifetime (also a counter).
        self.redials = 0
        #: Lines not yet sent, oldest first; a batch leaves only once sent.
        self._items: deque[_QueuedLine] = deque()
        #: Data lines in ``_items``: with none, shedding need not look.
        self._data_lines = 0
        #: The oldest ``_writing`` lines are in a ``send_many`` under way
        #: and may be on the wire, so shedding passes over them.
        self._writing = 0
        self._wakeup = asyncio.Event()
        #: Set to cut a re-dial backoff sleep short (endpoint moved, or
        #: the link is draining and must stop waiting on a dead runtime).
        self._redial_wakeup = asyncio.Event()
        self._closing = False
        self._session: TransportSession | None = None
        self._reset = False
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    def set_endpoint(self, host: str, port: int) -> None:
        """Point the link at a restarted runtime; the sender reconnects
        lazily on the next line.

        The old session MUST be abandoned even if it still looks
        writable: TCP happily accepts writes into a dead peer's buffer,
        so without the reset flag post-restart traffic would drain into
        the zombie of the crashed runtime without a single error."""
        self.host = host
        self.port = port
        self._reset = True
        self._redial_wakeup.set()

    @property
    def state(self) -> str:
        """This link's detector state (``up`` / ``suspect`` / ``down``)."""
        return self.detector.state()

    @property
    def depth(self) -> int:
        """Lines not yet sent, the batch being delivered included."""
        return len(self._items)

    def send(self, line: str, control: bool = False) -> None:
        """Queue one ingest line: the one-item :meth:`send_many`."""
        self.send_many([line], control)

    def send_many(self, lines: list[str], control: bool = False) -> None:
        """Queue lines in order, exactly as one :meth:`send` each would:
        the same fault-site hits, the same lines shed (synchronous: called
        on the accept path, so it must never await).

        One clock read stamps them all and one ``extend`` queues them;
        then as many of the oldest data lines are shed as the sends one
        by one would have shed, one per line that found the queue full.
        """
        if not control and get_injector() is not None:
            lines = [line for line in lines if not self._injected_drop()]
        if not lines:
            return
        enqueued_at = time.perf_counter()
        items = self._items
        items.extend([(line, enqueued_at, control) for line in lines])
        if not control:
            self._data_lines += len(lines)
        excess = min(len(lines), len(items) - self.queue_size)
        if excess > 0 and self._data_lines:
            self._shed_oldest(excess)
        self._wakeup.set()

    def _injected_drop(self) -> bool:
        """One hit of the ``gateway.link`` fault site; ``True`` when it
        drops the line (counted)."""
        spec = fault_point("gateway.link")
        if spec is not None and spec.kind == "drop":
            self.registry.inc("gateway.link.injected_drops")
            return True
        return False

    def _shed_oldest(self, count: int) -> None:
        """Backpressure contract of the ingest tier: shed the ``count``
        *oldest* data lines not being written (fewer if there are fewer),
        counted — control lines are never shed.  A batch waiting out a
        re-dial backoff is still queued, so its oldest lines go first."""
        items = self._items
        index = self._writing
        shed = 0
        while shed < count and index < len(items):
            if items[index][2]:
                index += 1
            else:
                del items[index]
                shed += 1
        if shed:
            self._data_lines -= shed
            self.registry.inc("gateway.link.shed", shed)

    async def _run(self) -> None:
        while True:
            while not self._items:
                if self._closing:
                    await self._disconnect()
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            self.registry.set_gauge("gateway.link.depth", len(self._items))
            await self._deliver()

    def _sent(self, count: int) -> None:
        """Dequeue the ``count`` oldest lines, sent; each one's wait from
        enqueue to sent is one histogram observation."""
        self._writing = 0
        if not count:
            return
        now = time.perf_counter()
        registry = self.registry
        latency = (
            registry.histogram("gateway.ingest.latency_seconds")
            if registry.enabled else None
        )
        controls = 0
        for _ in range(count):
            _, enqueued_at, control = self._items.popleft()
            controls += control
            if latency is not None:
                latency.observe(now - enqueued_at)
        self._data_lines -= count - controls
        registry.inc("gateway.link.lines", count)

    async def _deliver(self) -> None:
        """Deliver the oldest queued lines, at most :data:`LINK_BATCH_LINES`
        in one ``send_many``, re-dialing with capped backoff until they land.

        The batch is the unit of retry, resent from the first line the
        failed ``send_many`` did not send (its error's ``sent``) and
        re-taken from the queue on every attempt, so lines shed during a
        backoff are not resent.  A live link never gives a batch up:
        delivery failures feed the detector, the backoff delay is capped
        at the policy ceiling, and data loss happens only through the
        bounded queue's counted shed-oldest.  Only while the link is
        *draining* does the attempt budget apply — a dead runtime must
        not hang shutdown forever."""
        attempt = 0
        while self._items:
            if self._reset:
                self._reset = False
                await self._disconnect()
            try:
                if self._session is None:
                    self._session = await self.transport.connect(
                        self.host, self.port, "ingest"
                    )
                batch = [line for line, _, _ in islice(self._items, LINK_BATCH_LINES)]
                self._writing = len(batch)
                await self._session.send_many(batch)
            except (TransportError, ConnectionError, OSError) as exc:
                self._sent(exc.sent if isinstance(exc, TransportError) else 0)
                await self._disconnect()
                attempt += 1
                self.detector.record_failure()
                if self._closing and attempt >= self.policy.max_attempts:
                    # Drain-time budget spent: what is still queued is
                    # lost, and says so.
                    self.registry.inc("gateway.link.lines_dropped", len(self._items))
                    self._items.clear()
                    self._data_lines = 0
                    return
                self.redials += 1
                self.registry.inc("gateway.link.redials")
                delay = self.policy.delay_for(
                    min(attempt, self.policy.max_attempts)
                )
                try:
                    # The sleep is interruptible: a supervised restart
                    # repoints the endpoint mid-backoff and the link
                    # re-dials immediately instead of serving out the
                    # remaining delay against a dead address.
                    await asyncio.wait_for(
                        self._redial_wakeup.wait(), timeout=delay
                    )
                except asyncio.TimeoutError:
                    pass
                self._redial_wakeup.clear()
                continue
            self._sent(len(batch))
            self.detector.record_success()
            return

    async def _disconnect(self) -> None:
        session, self._session = self._session, None
        if session is not None:
            try:
                await session.close()
            except (TransportError, ConnectionError, OSError):
                pass

    async def close(self) -> None:
        """Flush the queue, then hang up."""
        self._closing = True
        self._wakeup.set()
        self._redial_wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    def snapshot(self) -> dict:
        """Per-link vitals for the cluster ``/healthz``."""
        return {
            "name": self.name,
            "state": self.state,
            "depth": self.depth,
            "redials": self.redials,
            "consecutive_failures": self.detector.consecutive_failures,
        }


class GatewayNode:
    """One ingest listener sharding client traffic across the runtimes."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        transport: Transport,
        links: list[RuntimeLink],
        slide_seconds: int,
        registry: MetricsRegistry | None = None,
    ):
        if not links:
            raise ValueError("a gateway node needs at least one runtime link")
        if slide_seconds <= 0:
            raise ValueError(f"slide_seconds must be positive: {slide_seconds}")
        self.name = name
        self.host = host
        self.port = port
        self.transport = transport
        self.links = links
        self.slide_seconds = slide_seconds
        self.registry = registry if registry is not None else MetricsRegistry()
        self.router = SentenceRouter(len(links), self.registry)
        self._server: asyncio.AbstractServer | None = None
        #: First slide boundary not yet watermarked; ``None`` until the
        #: first sentence fixes the grid.
        self._next_boundary: int | None = None
        self._last_time: int | None = None
        self._drained = False
        self.open_connections = 0
        self._idle = asyncio.Event()
        self._idle.set()

    async def start(self) -> None:
        for link in self.links:
            link.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=CLIENT_READ_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = await self.transport.accept(reader, writer, "ingest")
        if session is None:
            self.registry.inc("gateway.ingest.handshake_failures")
            writer.close()
            return
        self.registry.inc("gateway.ingest.connections")
        self.open_connections += 1
        self._idle.clear()
        try:
            while True:
                try:
                    lines = await session.receive_many()
                except TransportError:
                    self.registry.inc("gateway.ingest.protocol_errors")
                    break
                if not lines:
                    break
                self._take(lines)
        finally:
            await session.close()
            self.open_connections -= 1
            if self.open_connections == 0:
                self._idle.set()

    def _take(self, lines: list[str]) -> None:
        """Parse, route and queue one read of lines, as one line at a
        time would: the same lines on every link, in the same order.

        Each link's run of lines is queued with one ``send_many``.  A line
        that is late, or past the next slide boundary, cuts the read: the
        runs so far are queued first, then :meth:`_advance_watermarks`
        counts it or broadcasts the watermark, so every runtime sees a
        watermark after the lines before it and before the lines after."""
        parsed = parse_ingest_lines(lines, int(time.time()))
        if parsed:
            self.registry.inc("gateway.ingest.lines", len(parsed))
        if len(parsed) < len(lines):
            # Blank/comment lines are skipped, as on a single node
            # (service.ingest.ignored) — never invisibly.
            self.registry.inc("gateway.ingest.ignored", len(lines) - len(parsed))
        routes = self.router.route_many([sentence for _, sentence in parsed])
        # The gateway.link fault site must be hit in arrival order for a
        # chaos plan to replay exactly, so under an injector each line is
        # queued on its own.
        one_by_one = get_injector() is not None
        runs: list[list[str]] = [[] for _ in self.links]
        boundary, last = self._next_boundary, self._last_time
        for (receive_time, sentence), index in zip(parsed, routes):
            if last is None or boundary is None or not last <= receive_time <= boundary:
                self._flush(runs)
                self._last_time = last
                self._advance_watermarks(receive_time)
                boundary, last = self._next_boundary, self._last_time
            else:
                last = receive_time
            runs[index].append(format_ingest_line(receive_time, sentence))
            if one_by_one:
                self._flush(runs)
        self._last_time = last
        self._flush(runs)

    def _flush(self, runs: list[list[str]]) -> None:
        """Queue each link's run with one ``send_many``, and empty it."""
        for link, run in zip(self.links, runs):
            if run:
                link.send_many(run)
                run.clear()

    def _advance_watermarks(self, receive_time: int) -> None:
        slide = self.slide_seconds
        if self._next_boundary is None:
            # First sentence: announce this source to every runtime so
            # quiet shards still learn the cluster has N gateways.
            self._broadcast(format_watermark(receive_time, self.name))
            self._next_boundary = first_query_time(receive_time, slide)
        elif receive_time > self._next_boundary:
            self._broadcast(format_watermark(receive_time, self.name))
            # The first grid boundary at or after it, in one step: a
            # far-future time must not cost one iteration per slide.
            self._next_boundary -= (self._next_boundary - receive_time) // slide * slide
        if self._last_time is None or receive_time > self._last_time:
            self._last_time = receive_time
        elif receive_time < self._last_time:
            # Behind our own watermark: forwarded anyway (the runtime
            # batches it), but counted — the monotonicity contract of
            # watermarked ingest was violated upstream.
            self.registry.inc("gateway.ingest.late_lines")

    def _broadcast(self, watermark_line: str) -> None:
        self.registry.inc("gateway.watermarks")
        for link in self.links:
            link.send(watermark_line, control=True)

    async def drain(self) -> None:
        """Stop accepting, final-watermark every runtime, flush links.

        Waits for in-flight client connections to hang up first — the
        final watermark promises no more data from this source, so it
        must really be last on every link."""
        if self._drained:
            return
        self._drained = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._idle.wait()
        final_time = self._last_time if self._last_time is not None else 0
        self._broadcast(format_watermark(final_time, self.name, final=True))
        for link in self.links:
            await link.close()

    def snapshot(self) -> dict:
        """Per-node vitals for the cluster ``/healthz``."""
        return {
            "name": self.name,
            "port": self.port,
            "last_receive_time": self._last_time,
            "next_boundary": self._next_boundary,
            "link_depths": [link.depth for link in self.links],
            "links": [link.snapshot() for link in self.links],
            "counters": dict(self.registry.snapshot()["counters"]),
        }

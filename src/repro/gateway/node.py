"""One gateway node: accept clients, shard sentences, emit watermarks.

A :class:`GatewayNode` is the cluster's front door.  It accepts client
connections on either transport, routes each sentence to the
backend runtime owning its MMSI (:mod:`repro.gateway.routing`), and
broadcasts its clock, the latest time it has forwarded, as an in-band
watermark (:func:`repro.service.protocol.format_watermark`) to *every*
runtime, so each can close a slide once every gateway has passed it even
though it sees only a subset of the traffic.  The slide grid is the
runtime's alone.

Sentences travel to runtimes over :class:`RuntimeLink`\\ s — bounded
send queues with the same shed-oldest contract as the ingest queue and
deterministic reconnect backoff so a restarted runtime is rejoined
transparently; the node hits the ``gateway.link`` fault site for chaos
drills once per sentence it forwards.
Both ends move batches: a node reads what a client has sent with one
``receive_many`` and takes its lines in one pass.  A canonical line
(:data:`~repro.service.protocol.CANONICAL_INGEST_LINE`, what
:func:`~repro.service.protocol.format_ingest_line` writes for a usual
single-fragment sentence) is stamped and framed by one match, routed by
its header (:meth:`~repro.gateway.routing.SentenceRouter.route_header`)
and forwarded as received, and the same sentence sent bare is stamped
with the read's clock; any other line is parsed, routed and formatted
again.  Each link's run is queued with one
:meth:`RuntimeLink.send_many`, and a link sends its queued lines with
one ``send_many`` per wakeup.  Fault sites, shedding and counters still
act per line, and a line stays queued — bounded, sheddable — until it
is sent.
"""

import asyncio
import time
from collections import deque
from itertools import islice

from repro.gateway.health import LinkFailureDetector
from repro.gateway.routing import SentenceRouter
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import fault_point, get_injector
from repro.resilience.retry import BackoffPolicy
from repro.service.protocol import (
    CANONICAL_INGEST_LINE,
    format_ingest_line,
    format_watermark,
    parse_ingest_line,
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
        the same lines shed (synchronous: called on the accept path, so
        it must never await).

        One clock read stamps them all and one ``extend`` queues them;
        then as many of the oldest data lines are shed as the sends one
        by one would have shed, one per line that found the queue full.
        """
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
        registry: MetricsRegistry | None = None,
    ):
        if not links:
            raise ValueError("a gateway node needs at least one runtime link")
        self.name = name
        self.host = host
        self.port = port
        self.transport = transport
        self.links = links
        self.registry = registry if registry is not None else MetricsRegistry()
        self.router = SentenceRouter(len(links), self.registry)
        self._server: asyncio.AbstractServer | None = None
        #: This node's clock: the latest receive time it has forwarded.
        self._last_time: int | None = None
        #: Stamp of the last watermark broadcast.
        self._watermark_time: int | None = None
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
        time would: the same lines on every link, in the same order, each
        link's run queued with one ``send_many``.

        A canonical line is forwarded as received (a bare canonical
        sentence is stamped with the read's clock); any other is parsed
        (:func:`~repro.service.protocol.parse_ingest_line`), routed
        (:meth:`~repro.gateway.routing.SentenceRouter.route`) and
        formatted again.  A read that moved this node's clock past its
        last watermark leaves one more, stamped with the clock: at its
        end, or before its first line behind the clock.  Every runtime
        may then close or track what is stamped at or before it, and a
        late line lands in the slide a single node would give it,
        however the read is cut.  The first sentence's watermark also
        tells every runtime, quiet shards included, that this source
        exists."""
        default_time = int(time.time())
        canonical = CANONICAL_INGEST_LINE
        router = self.router
        # The gateway.link fault site is hit once per data line, in
        # arrival order, so a chaos plan replays exactly.
        injecting = get_injector() is not None
        runs: list[list[str]] = [[] for _ in self.links]
        clock = self._last_time
        taken = late = 0
        for line in lines:
            match = canonical(line)
            if match is not None:
                stamp, sentence, header = match.groups()
                if stamp is None:
                    receive_time = default_time
                    line = format_ingest_line(receive_time, sentence)
                else:
                    receive_time = int(stamp)
                index = router.route_header(header, sentence)
            else:
                item = parse_ingest_line(line, default_time)
                if item is None:
                    continue
                receive_time, sentence = item
                index = router.route(sentence)
                line = format_ingest_line(receive_time, sentence)
            taken += 1
            if clock is None or receive_time > clock:
                clock = receive_time
            elif receive_time < clock:
                late += 1
                if clock != self._watermark_time:
                    # Every runtime may run the slides the clock passed
                    # first, as a single node has before a late line.
                    self._flush(runs)
                    self._broadcast(clock)
            if injecting and self._injected_drop():
                continue
            runs[index].append(line)
        if taken:
            self.registry.inc("gateway.ingest.lines", taken)
        if taken < len(lines):
            # Blank/comment lines are skipped, as on a single node
            # (service.ingest.ignored) — never invisibly.
            self.registry.inc("gateway.ingest.ignored", len(lines) - taken)
        if late:
            # Behind our own clock: forwarded anyway (the runtime batches
            # it), but counted — the monotonicity contract of watermarked
            # ingest was violated upstream.
            self.registry.inc("gateway.ingest.late_lines", late)
        self._last_time = clock
        self._flush(runs)
        # The clock never falls and every watermark but the drain's was
        # stamped with it, so a clock unequal to the last stamp moved.
        if clock != self._watermark_time:
            self._broadcast(clock)

    def _injected_drop(self) -> bool:
        """One hit of the ``gateway.link`` fault site; ``True`` when it
        drops the line (counted)."""
        spec = fault_point("gateway.link")
        if spec is not None and spec.kind == "drop":
            self.registry.inc("gateway.link.injected_drops")
            return True
        return False

    def _flush(self, runs: list[list[str]]) -> None:
        """Queue each link's run with one ``send_many``, and empty it."""
        for link, run in zip(self.links, runs):
            if run:
                link.send_many(run)
                run.clear()

    def _broadcast(self, stamp: int, final: bool = False) -> None:
        """Send every runtime this node's watermark at ``stamp``."""
        self._watermark_time = stamp
        self.registry.inc("gateway.watermarks")
        watermark_line = format_watermark(stamp, self.name, final)
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
        self._broadcast(final_time, final=True)
        for link in self.links:
            await link.close()

    def snapshot(self) -> dict:
        """Per-node vitals for the cluster ``/healthz``."""
        return {
            "name": self.name,
            "port": self.port,
            "last_receive_time": self._last_time,
            "watermark_time": self._watermark_time,
            "link_depths": [link.depth for link in self.links],
            "links": [link.snapshot() for link in self.links],
            "counters": dict(self.registry.snapshot()["counters"]),
        }

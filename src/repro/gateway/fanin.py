"""Fan-in of per-runtime feed subscriptions into one merged stream.

Every backend runtime publishes its own feed of slide lines; the fan-in
subscribes to all of them and emits cluster lines in deterministic
order.  The merger is a *barrier* merge: it holds one head line per
live source and only emits once every source has shown its hand, so a
slow runtime delays the merged stream instead of corrupting its order.
Runtimes that started late (their first vessel arrived in a later slide)
simply have no line at early boundaries — the group at each ``(query
time, type)`` key is whichever sources reached it.

A source whose connection dies *unexpectedly* (no
:meth:`FeedFanIn.begin_close` yet) goes **dormant** rather than
finished: the merger keeps blocking on its queue, so when the cluster
restarts the runtime and reattaches a new session, the stream resumes
exactly where it stopped — replayed slides are deduplicated against the
last merged query time.  This is what makes a quiescent-point crash
invisible in the merged bytes (docs/GATEWAY.md).
"""

import asyncio
from typing import Callable

from repro.gateway.merge import (
    ShardLine,
    merge_order_key,
    merged_feed_line,
    parse_feed_line,
)
from repro.obs.registry import MetricsRegistry
from repro.transport.base import TransportError, TransportSession


class _EndOfStream:
    """Queue marker: one session of a source reached end-of-stream."""

    __slots__ = ("session",)

    def __init__(self, session: int):
        #: Which of the source's sessions ended (:attr:`_FanSource.sessions`).
        self.session = session


class _FanSource:
    """One runtime's subscription state."""

    def __init__(self, name: str):
        self.name = name
        self.queue: asyncio.Queue = asyncio.Queue()
        #: Last query time merged from this source — the dedup horizon
        #: for lines replayed after a reattach.
        self.last_qt: int | None = None
        self.down = False
        self.reader: asyncio.Task | None = None
        #: Sessions attached so far: only the latest one's end-of-stream
        #: can retire the source.
        self.sessions = 0


class FeedFanIn:
    """Barrier-merge N runtime feeds into one deterministic stream."""

    def __init__(
        self,
        on_line: Callable[[str], None],
        registry: MetricsRegistry | None = None,
    ):
        self.on_line = on_line
        self.registry = registry if registry is not None else MetricsRegistry()
        self._sources: dict[str, _FanSource] = {}
        self._closing = False
        self._task: asyncio.Task | None = None

    def add_source(self, name: str, session: TransportSession) -> None:
        """Attach (or re-attach, after a runtime restart) one feed."""
        source = self._sources.get(name)
        if source is None:
            source = _FanSource(name)
            self._sources[name] = source
        source.sessions += 1
        loop = asyncio.get_running_loop()
        source.reader = loop.create_task(
            self._read(source, session, source.sessions)
        )

    def start(self) -> None:
        """Start merging; call after the initial sources are attached."""
        self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def down_sources(self) -> list[str]:
        """Names of sources currently dormant (connection lost)."""
        return sorted(n for n, s in self._sources.items() if s.down)

    async def _read(
        self, source: _FanSource, session: TransportSession, number: int
    ) -> None:
        try:
            while True:
                try:
                    line = await session.receive()
                except TransportError:
                    self.registry.inc("gateway.fanin.protocol_errors")
                    break
                if line is None:
                    break
                # Checked whole here, so a malformed line is counted and
                # skipped instead of stopping the merge.
                shard_line = parse_feed_line(line)
                if shard_line is None:
                    self.registry.inc("gateway.fanin.bad_lines")
                    continue
                if (
                    source.last_qt is not None
                    and shard_line.query_time <= source.last_qt
                ):
                    # A replayed slide from a restarted runtime's journal.
                    self.registry.inc("gateway.fanin.duplicate_lines")
                    continue
                await source.queue.put(shard_line)
        finally:
            await session.close()
            await source.queue.put(_EndOfStream(number))

    async def _next_head(self, source: _FanSource):
        """The source's next line; ``None`` once it drained for good."""
        while True:
            item = await source.queue.get()
            if isinstance(item, _EndOfStream):
                # A crashed session's end can still be queued when the
                # drain begins, ahead of its replacement's lines: only
                # the latest session's end is final.
                if self._closing and item.session == source.sessions:
                    return None
                if not source.down:
                    source.down = True
                    self.registry.inc("gateway.fanin.source_losses")
                # Dormant, not dead: block until a reattached session
                # feeds this same queue again.
                continue
            source.down = False
            return item

    async def _run(self) -> None:
        heads: dict[str, ShardLine] = {}
        while self._sources:
            for name in list(self._sources):
                if name not in heads:
                    head = await self._next_head(self._sources[name])
                    if head is None:
                        del self._sources[name]
                    else:
                        heads[name] = head
            if not heads:
                break
            key = min(merge_order_key(head) for head in heads.values())
            group = sorted(
                name for name, head in heads.items()
                if merge_order_key(head) == key
            )
            line = merged_feed_line([heads[name] for name in group])
            self.registry.inc("gateway.fanin.merged_lines")
            self.on_line(line)
            for name in group:
                self._sources[name].last_qt = heads[name].query_time
                del heads[name]

    def begin_close(self) -> None:
        """Announce the cluster is draining: the next end-of-stream of
        each source's latest session means *finished*, not *crashed*.
        Sources with no live session are unblocked so the merger can
        retire them; one reattached but still silent is left to end its
        own stream."""
        self._closing = True
        for source in self._sources.values():
            if source.reader is not None and source.reader.done():
                source.queue.put_nowait(_EndOfStream(source.sessions))

    async def wait_closed(self) -> None:
        """Wait for the merger to retire every source."""
        if self._task is not None:
            await self._task
            self._task = None

"""The slide batcher: from ingest queue to pipeline slides.

This is the live twin of :class:`repro.ais.stream.StreamReplayer` and
follows its batching contract *exactly* — query times are consecutive
multiples of the window slide starting at the first boundary at or after
the earliest arrival, a slide's batch holds every arrival with
``arrival <= query_time``, and empty slides still run (the window slides
and expired tuples must still be evicted).  The soak-parity tests lean on
this: a TCP-ingested stream must produce *byte-identical* feed output to
an offline replay of the same sentences.

Sentences move in batches: each wakeup takes everything the queue holds,
the hand-over is split only at ``!REPRO,`` control lines, and each run
of data lines between them is scanned in one
:meth:`~repro.ais.scanner.DataScanner.scan_many`; journal recovery
replays through the same path.  The scanned positions then join the
pending batch one by one, so the slide cadence is that of one sentence
at a time, however the stream was cut.

Durability and diagnostics (docs/RESILIENCE.md):

* with a write-ahead ``journal``, every dequeued sentence is appended to
  it *before* it is scanned, and the journal is fsynced at each slide
  boundary — so the journal holds exactly the post-shedding stream the
  pipeline has consumed, which is what :meth:`SlideBatcher.replay` feeds
  back after a crash to reproduce every slide byte-for-byte;
* sentences the scanner rejects are classified and quarantined in the
  batcher's :class:`~repro.service.quarantine.DeadLetterBuffer` instead
  of vanishing into a counter;
* the batcher's :class:`~repro.resilience.watchdog.SlideWatchdog` gets a
  beat when an archive starts and finishes, so a wedged archive is
  detected from the event loop, and counts every slide closed.

The online half of a slide is CPU work on the event loop.  The open
slide's positions are tracked as they arrive (``system.track``): on a
node as each run is scanned, on a shard once every source's watermark
has passed them.  A slide's close then pays only for the Compressor and
RTEC (``system.close_slide``), and its feed line is published; the
batcher yields to the loop once after each slide, so a catch-up burst
never holds sockets, links or the watchdog for more than one slide.
Only the MOD's sqlite work runs on the one pipeline thread
(``run_in_executor``): the slide's archive (``system.archive``, staging
and reconstruction) at the start of the batcher's next hand-over, slide
or drain, and ``finalize``.  An archive with nothing to stage (the first
omega/beta slides of a stream, most slides of a catch-up burst) runs on
the loop instead.

**One cadence** (docs/GATEWAY.md): the window keeps pace with the
*reported* timestamps, so a slide holds every position stamped inside it
whatever order the sockets delivered them in.  A slide at query time
``qt`` runs once the stream has provably passed ``qt``: every upstream
source's ``!REPRO,WM,<source>`` watermark is past it (``final`` exempts
a source), and some position or watermark is stamped after it.  A node
with no upstream sources is its own source: its arrivals are its
watermark, and it ignores (and counts) watermark lines.  Every
deployment then cuts slides the same way: the batch is the pending
positions with ``timestamp <= qt``, every one of them handed to
``system.track`` before the close, and the grid re-anchors downward on
an early straggler until the first slide runs.  The batcher keeps
arrival order and never sorts: the tracker alone puts a slide in
``(timestamp, mmsi)`` order — so a single node, a gateway-cluster shard
and the offline replay agree byte for byte, however clients or gateway
links interleave.
"""

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.ais.scanner import DataScanner
from repro.ais.stream import first_query_time
from repro.pipeline.metrics import SlideReport
from repro.resilience.faults import InjectedFault, SimulatedCrash, fault_point
from repro.resilience.watchdog import SlideWatchdog
from repro.service.protocol import CONTROL_PREFIX, parse_heartbeat, parse_watermark
from repro.service.quarantine import DeadLetterBuffer

#: An archive running longer than this is counted as stalled
#: (``resilience.watchdog.stalls``, ``/healthz``): well above the slowest
#: slide of any benchmark workload, so a count means a wedge.
SLIDE_STALL_SECONDS = 10.0


class SlideBatcher:
    """Consume the ingest queue, drive the pipeline, publish slide results."""

    def __init__(
        self,
        system,
        queue,
        slide_seconds: int,
        on_report=None,
        journal=None,
        watermark_sources: int = 0,
    ):
        if slide_seconds <= 0:
            raise ValueError(f"slide must be positive, got {slide_seconds}")
        self.system = system
        self.queue = queue
        self.slide_seconds = slide_seconds
        self.scanner = DataScanner()
        self._on_report = on_report or (lambda report, kind: None)
        self.journal = journal
        #: Sentences the scanner rejected, with their causes.
        self.deadletter = DeadLetterBuffer()
        #: Beaten around every archive, counts every close; the owner
        #: ticks it.
        self.watchdog = SlideWatchdog(SLIDE_STALL_SECONDS)
        #: Upstream sources whose watermarks gate a slide; ``0``: the
        #: node's own arrivals are its watermark.
        self.watermark_sources = watermark_sources
        #: Latest watermark timestamp per upstream source.
        self._wm_clocks: dict[str, int] = {}
        self._wm_final: set[str] = set()
        #: Max over every position and watermark timestamp seen.
        self._max_ts: int | None = None
        #: Pending positions not yet handed to ``system.track``
        #: (:meth:`_track_arrivals`), in arrival order.
        self._held: list = []
        self._query_time: int | None = None
        #: True once the first slide ran — the grid anchor is then final.
        self._grid_locked = False
        #: Query time of the last closed slide while its archive is due.
        self._archive_due: int | None = None
        self.slides_processed = 0
        self.pipeline_errors = 0
        self.replayed_records = 0
        self._aborted = False
        # One dedicated worker for the archive and finalize: the MOD's
        # sqlite connection is single-owner, and its I/O stays off the loop.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="pipeline-mod"
        )

    async def replay(self, records: list[tuple[int, str]]) -> int:
        """Re-feed journal records recovered from a previous incarnation.

        Runs before any live traffic, through the same batch path as
        live ingest.  The records are *not* re-journaled (they are
        already durable) and every slide they complete is republished —
        at-least-once delivery: feed lines are deterministic and keyed by
        their ``query_time``, so a consumer that saw some of them before
        the crash deduplicates trivially.  The final partial slide stays
        pending, and live ingest continues it seamlessly.
        """
        await self._ingest(records, journal=False)
        self.replayed_records += len(records)
        if records:
            obs.count("resilience.recovery.replayed_records", len(records))
        return len(records)

    async def run(self) -> None:
        """Main loop; returns once the queue is closed and fully drained.

        Each wakeup takes everything buffered in one hand-over."""
        while items := await self.queue.get_many():
            if obs.is_enabled():
                now = time.perf_counter()
                for *_, enqueued_at in items:
                    obs.observe("service.ingest.latency_seconds", now - enqueued_at)
            await self._ingest([item[:2] for item in items], journal=True)

    async def _ingest(self, records: list[tuple[int, str]], journal: bool) -> None:
        """``(receive_time, sentence)`` records through journal → scanner
        → batch → slides, in order: each run of data lines between
        control lines is journaled, then scanned in one
        :meth:`~repro.ais.scanner.DataScanner.scan_many`."""
        await self._archive()
        data: list[tuple[int, str]] = []
        for record in records:
            sentence = record[1]
            if sentence.startswith(CONTROL_PREFIX):
                if parse_heartbeat(sentence) is not None:
                    # A liveness probe from the gateway tier: counted, then
                    # discarded *before* the journal and the watermark
                    # clocks — heartbeats carry no data and must never
                    # perturb the slide cadence or a replay
                    # (docs/RESILIENCE.md).
                    obs.count("service.ingest.heartbeats")
                    continue
                watermark = parse_watermark(sentence)
                if watermark is not None:
                    await self._ingest_data(data, journal)
                    data = []
                    # Journaled (a replay must rebuild the source clocks)
                    # but never scanned or quarantined:
                    # watermarks are control flow, not data.
                    if journal and self.journal is not None:
                        self.journal.append(*record)
                    await self._handle_watermark(record[0], *watermark)
                    continue
            data.append(record)
        await self._ingest_data(data, journal)

    async def _ingest_data(self, records: list[tuple[int, str]], journal: bool) -> None:
        """One run of data lines: journal, scan, quarantine, then slide."""
        if not records:
            return
        if journal and self.journal is not None:
            # Journal *before* scanning: anything the pipeline has seen is
            # on disk first (under `always` even fsynced; under `batch`
            # the slide-boundary sync bounds the exposure).
            for receive_time, sentence in records:
                self.journal.append(receive_time, sentence)
        positions = self.scanner.scan_many(records)
        for index, reason in self.scanner.rejections:
            self.deadletter.quarantine(*records[index], reason)
        if positions:
            await self._admit(positions)

    async def _admit(self, positions: list) -> None:
        """Add scanned positions to the pending batch; a position stamped
        past the current boundary may release slides.  The open slide's
        share of them is then tracked as far as the bound allows
        (:meth:`_track_arrivals`); a closing slide's whole share is
        tracked before its close (:meth:`_process_slide`)."""
        for position in positions:
            arrival = position.timestamp
            if self._max_ts is None or arrival > self._max_ts:
                self._max_ts = arrival
            if not self._grid_locked:
                # Until the first slide runs, an early straggler (another
                # client's or gateway link's older line, delivered after a
                # later one) re-anchors the grid downward: no slide at or
                # past its boundary can have run, so the grid ends up
                # anchored at the earliest timestamp, as offline.
                boundary = first_query_time(arrival, self.slide_seconds)
                if self._query_time is None or boundary < self._query_time:
                    self._query_time = boundary
            self._held.append(position)
            if arrival > self._query_time:
                await self._advance()
        self._track_arrivals()

    def _track_arrivals(self) -> None:
        """Hand the pipeline the held positions stamped at or before a
        bound, on the loop that scanned them, so closing the slide pays
        only for what follows tracking.

        The bound is the open slide's query time, and on a shard also
        the lowest clock of its live sources: each gateway's stream is
        time-ordered, so no position still to come is stamped below it,
        and what is released is never overtaken.  Nothing is released
        until the grid is locked: before the first slide it may still
        re-anchor, and no slide runs before every source has announced
        itself.  A position that arrives behind a later one of its
        vessel (a client's or a source's late line) rolls that vessel
        back to the close (``tracking.arrival_rollbacks``); the feed
        does not change.  After a slide that rolled back too many of its
        vessels, as two clients splitting each vessel's reports do, the
        tracker leaves the next one to the close
        (:meth:`ColumnarTracker.track`)."""
        if self._grid_locked and self._held:
            self._release(min(self._query_time, self._frontier()))

    def _release(self, bound: float) -> None:
        """Track the held positions stamped at or before ``bound``, in
        the order they arrived: they join the open slide."""
        held = self._held
        due = [p for p in held if p.timestamp <= bound]
        if due:
            self._held = [p for p in held if p.timestamp > bound]
            self.system.track(due)

    async def _handle_watermark(
        self, receive_time: int, source: str, final: bool
    ) -> None:
        """Advance one source's clock and run every slide now unblocked."""
        if self.watermark_sources <= 0:
            # A node with no upstream sources fed gateway traffic:
            # counted so the misconfiguration is visible, then ignored —
            # its own arrivals are its watermark.
            obs.count("service.ingest.watermarks_ignored")
            return
        obs.count("service.ingest.watermarks")
        known = self._wm_clocks.get(source)
        if known is None or receive_time > known:
            self._wm_clocks[source] = receive_time
        if final:
            self._wm_final.add(source)
        if self._max_ts is None or receive_time > self._max_ts:
            self._max_ts = receive_time
        await self._advance()
        self._track_arrivals()

    async def _advance(self) -> None:
        """Run slides while every upstream source's watermark has passed
        the boundary and at least one later timestamp proves the slide
        grid extends past it (a trailing slide with nothing after it
        waits for drain)."""
        while True:
            qt = self._query_time
            if qt is None or len(self._wm_clocks) < self.watermark_sources:
                return
            if self._frontier() <= qt:
                return
            if self._max_ts is None or self._max_ts <= qt:
                return
            await self._process_slide()
            self._query_time = qt + self.slide_seconds

    def _frontier(self) -> float:
        """The lowest clock of the live upstream sources: no position
        still to come from them is stamped below it.  A source that sent
        its final watermark holds nothing back, so with every source
        final, or none upstream, it is +inf."""
        return min(
            (ts for src, ts in self._wm_clocks.items() if src not in self._wm_final),
            default=math.inf,
        )

    @property
    def watermark_clocks(self) -> dict[str, int]:
        """Last watermark per source (health/diagnostics snapshot)."""
        return dict(self._wm_clocks)

    async def drain(self) -> None:
        """Flush the last partial slide and run end-of-stream finalize."""
        if self._query_time is not None:
            # The trailing slide runs even when this node's batch is
            # empty: every cluster shard must finalize at the same query
            # time for the fan-in merge to line up.  Without a final
            # watermark (a forced stop mid-stream, or a node whose
            # arrivals are its watermark) positions may be pending past
            # it: keep sliding until none is left rather than strand them.
            await self._process_slide()
            while self._held:
                self._query_time += self.slide_seconds
                await self._process_slide()
        dropped = self.scanner.flush()
        if dropped:
            obs.count("service.ingest.fragments_dropped_at_drain", dropped)
        await self._archive()
        if self._query_time is not None:
            report = await self._call_pipeline(self.system.finalize)
            if report is not None:
                self._on_report(report, "finalize")
        self._executor.shutdown(wait=True)
        if self.journal is not None:
            # A clean drain means every journaled sentence made it through
            # finalize into the MOD: the journal's obligation is met.
            self.journal.truncate_all()

    def abort(self) -> None:
        """Forced shutdown: the drain deadline passed with an archive or
        finalize still wedged on the pipeline thread.  Nothing further is
        flushed; the journal file stays so the next incarnation replays
        it."""
        self._aborted = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            self.journal.close()
        obs.count("service.drain.forced_aborts")

    async def _process_slide(self) -> None:
        await self._archive()
        # The close closes what the tracker took: every held position
        # due at this boundary is tracked first, whatever the frontier
        # (the first slide, which locks the grid, and a drain without a
        # final watermark).  Later ones (delivered before a
        # lagging source or client caught up, or the arrival that closed
        # this slide) wait for their slide.  The tracker alone puts the
        # slide in (timestamp, mmsi) order, ties in arrival order.
        self._grid_locked = True
        qt = self._query_time
        self._release(qt)
        if self.journal is not None:
            # Slide boundary = the batch-policy durability point: every
            # sentence this slide consumed is on disk before the pipeline
            # (or an injected crash) can act on it.
            self.journal.sync()
        try:
            spec = fault_point("service.slide")
        except InjectedFault:
            # An injected slide error behaves like an unrecoverable
            # pipeline fault: the slide is lost and counted, service lives.
            # What the slide tracked is undone first, so its positions
            # never reach the tracker.
            self.system.untrack()
            self._count_pipeline_error()
            return
        if spec is not None and spec.kind == "crash":
            # The in-process stand-in for kill -9: abandon everything.
            raise SimulatedCrash("service.slide", spec.at)
        try:
            report = self.system.close_slide(qt)
        except Exception:
            # Unrecoverable inside the close: the slide is lost, counted.
            self._count_pipeline_error()
        else:
            self.slides_processed += 1
            obs.set_gauge("service.ingest.queue_depth", len(self.queue))
            self._on_report(report, "slide")
            self._archive_due = qt
        # The close holds the loop, so no watchdog tick can see it run:
        # the beat only counts it.
        self.watchdog.slide_finished()
        # Yield once per slide: the subscriber's write, other connections
        # and the watchdog run before the batcher goes on, in a catch-up
        # burst too.
        await asyncio.sleep(0)

    async def _archive(self) -> None:
        """Run the last closed slide's archive if it is still due.

        Called at the next hand-over, slide or drain, not right after
        the publish: an archive started then holds the interpreter lock
        while the loop is still delivering the slide's line.  The
        batcher awaits it, so it never overlaps tracking or a close.
        """
        if self._archive_due is None:
            return
        query_time, self._archive_due = self._archive_due, None
        self.watchdog.slide_started(query_time)
        if self.system.archive_touches_mod():
            await self._call_pipeline(self.system.archive)
        else:
            # No sqlite call that could wedge: the archive only records
            # the slide and releases it, so it runs here, with no hop.
            try:
                self.system.archive()
            except Exception:
                self._count_pipeline_error()
        self.watchdog.slide_finished(archive=True)

    async def _call_pipeline(self, fn) -> SlideReport | None:
        """Run one MOD call (archive or finalize) on the pipeline thread;
        errors are counted, not fatal: from an archive it costs only the
        archive."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._executor, fn)
        except Exception:
            self._count_pipeline_error()
            return None

    def _count_pipeline_error(self) -> None:
        """Anything that escapes the pipeline is an unrecoverable fault,
        which the service survives and counts (``service.pipeline.errors``)."""
        self.pipeline_errors += 1
        obs.count("service.pipeline.errors")

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
  beat when a pipeline slide starts and finishes, so a wedged slide is
  detected from the event loop.

Pipeline slides execute on a worker thread (``run_in_executor``) so the
event loop keeps reading sockets while a slide is being processed —
that's what lets the bounded ingest queue shed (with counters) instead of
the whole service seizing up when producers outrun the pipeline.

**Watermark mode** (``watermark_sources > 0``, docs/GATEWAY.md): when the
service is one shard of a gateway cluster, arrivals from different
gateway nodes interleave nondeterministically, so the arrival-driven
cadence above would smear sentences across slides differently on every
run.  Instead each gateway emits in-band ``!REPRO,WM,<source>`` watermark
lines; a slide at query time ``qt`` runs only once *every* source's
watermark has passed ``qt``, its batch is the pending positions with
``timestamp <= qt`` sorted by ``(timestamp, mmsi)``, and the slide grid
itself (first boundary at or after the earliest position) is unchanged —
which makes the cluster's slide cadence byte-identical to a single
node's, independent of arrival interleaving.
"""

import asyncio
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

#: A pipeline slide running longer than this is counted as stalled
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
        on_positions=None,
        record_ingest: bool = False,
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
        self._on_positions = on_positions or (lambda positions: None)
        #: Test tap: keep every scanned record in :attr:`ingested`.  Off
        #: in production: the log grows without bound.
        self.record_ingest = record_ingest
        self.journal = journal
        #: Sentences the scanner rejected, with their causes.
        self.deadletter = DeadLetterBuffer()
        #: Beaten around every pipeline slide; the owner ticks it.
        self.watchdog = SlideWatchdog(SLIDE_STALL_SECONDS)
        self.watermark_sources = watermark_sources
        #: Latest watermark timestamp per source (watermark mode only).
        self._wm_clocks: dict[str, int] = {}
        self._wm_final: set[str] = set()
        #: Max over every position and watermark timestamp seen.
        self._max_ts: int | None = None
        #: Exactly the (receive_time, sentence) pairs handed to the
        #: scanner, post-shedding — the offline-parity replay input.
        self.ingested: list[tuple[int, str]] = []
        self._batch: list = []
        self._query_time: int | None = None
        #: True once the first slide ran — the grid anchor is then final.
        self._grid_locked = False
        self.slides_processed = 0
        self.pipeline_errors = 0
        self.replayed_records = 0
        self._aborted = False
        # One dedicated worker: pipeline calls stay strictly serialized on
        # a single thread (the MOD's sqlite connection is single-owner).
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="pipeline-slide"
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
                    # but never scanned, recorded, or quarantined:
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
        if self.record_ingest:
            self.ingested.extend(records)
        positions = self.scanner.scan_many(records)
        for index, reason in self.scanner.rejections:
            self.deadletter.quarantine(*records[index], reason)
        if positions:
            self._on_positions(positions)
            await self._admit(positions)

    async def _admit(self, positions: list) -> None:
        """Add scanned positions to the pending batch, running every
        slide an arrival closes."""
        slide = self.slide_seconds
        watermarked = self.watermark_sources > 0
        for position in positions:
            arrival = position.timestamp
            if self._max_ts is None or arrival > self._max_ts:
                self._max_ts = arrival
            if self._query_time is None or (watermarked and not self._grid_locked):
                boundary = first_query_time(arrival, slide)
                if self._query_time is None:
                    self._query_time = boundary
                    if watermarked:
                        # Watermarks may already be past this fresh boundary.
                        await self._advance_watermarked()
                elif boundary < self._query_time:
                    # A cross-link straggler: another gateway's link
                    # delivered a later position first, so the grid
                    # anchored too high.  Until the first slide runs this
                    # is safe to repair — the straggler source's clock is
                    # still at or below its timestamp, so the watermark
                    # barrier cannot have released any slide at or past
                    # this boundary.  The single node anchors at the
                    # earliest timestamp; now this shard does too.
                    self._query_time = boundary
            if not watermarked:
                # Watermark mode never slides on arrivals: slides run from
                # :meth:`_handle_watermark` once every source has passed
                # the boundary.
                while arrival > self._query_time:
                    await self._process_slide()
                    self._query_time += slide
            self._batch.append(position)

    async def _handle_watermark(
        self, receive_time: int, source: str, final: bool
    ) -> None:
        """Advance one source's clock and run every slide now unblocked."""
        if self.watermark_sources <= 0:
            # A legacy (non-clustered) service fed gateway traffic:
            # counted so the misconfiguration is visible, then ignored —
            # the arrival-driven cadence needs no watermarks.
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
        await self._advance_watermarked()

    async def _advance_watermarked(self) -> None:
        """Run slides while every source's watermark has passed the
        boundary and at least one later timestamp proves the slide grid
        extends past it (the single-node cadence never runs a trailing
        slide with nothing after it — drain handles the last one)."""
        while True:
            qt = self._query_time
            if qt is None or len(self._wm_clocks) < self.watermark_sources:
                return
            live = [
                ts
                for src, ts in self._wm_clocks.items()
                if src not in self._wm_final
            ]
            # A source that sent its final watermark can never hold a
            # slide back; with every source final the low bound is +inf.
            if live and min(live) <= qt:
                return
            if self._max_ts is None or self._max_ts <= qt:
                return
            await self._process_slide()
            self._query_time = qt + self.slide_seconds

    @property
    def watermark_clocks(self) -> dict[str, int]:
        """Last watermark per source (health/diagnostics snapshot)."""
        return dict(self._wm_clocks)

    async def drain(self) -> None:
        """Flush the last partial slide and run end-of-stream finalize."""
        if self.watermark_sources > 0:
            if self._query_time is not None:
                # The trailing slide runs even when this shard's batch is
                # empty: every shard must finalize at the same query time
                # for the fan-in merge to line up, and the single-node
                # trailing batch is never empty (its max-ts position is
                # in it).  After final watermarks the batch drains in one
                # slide; a forced stop mid-stream keeps sliding until
                # nothing is pending rather than stranding positions.
                await self._process_slide()
                while self._batch:
                    self._query_time += self.slide_seconds
                    await self._process_slide()
        elif self._batch:
            await self._process_slide()
        dropped = self.scanner.flush()
        if dropped:
            obs.count("service.ingest.fragments_dropped_at_drain", dropped)
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
        """Forced shutdown: the drain deadline passed with a slide still
        wedged on the executor.  Nothing further is flushed; the journal
        keeps its segments so the next incarnation replays them."""
        self._aborted = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.journal is not None:
            self.journal.close()
        obs.count("service.drain.forced_aborts")

    async def _process_slide(self) -> None:
        self._grid_locked = True
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
            self.pipeline_errors += 1
            obs.count("service.pipeline.errors")
            self._batch = []
            return
        if spec is not None and spec.kind == "crash":
            # The in-process stand-in for kill -9: abandon everything.
            raise SimulatedCrash("service.slide", spec.at)
        batch, self._batch = self._batch, []
        if self.watermark_sources > 0:
            # Only positions due at this boundary; later ones (already
            # delivered because another source lagged) wait for their
            # slide.  The (timestamp, mmsi) sort erases the arrival
            # interleaving across gateway links — per-vessel order is
            # already timestamped, so this is a pure determinism step.
            qt = self._query_time
            self._batch = [p for p in batch if p.timestamp > qt]
            batch = sorted(
                (p for p in batch if p.timestamp <= qt),
                key=lambda p: (p.timestamp, p.mmsi),
            )
        self.watchdog.slide_started(self._query_time)
        report = await self._call_pipeline(
            self.system.process_slide, batch, self._query_time
        )
        self.watchdog.slide_finished()
        if report is None:
            return
        self.slides_processed += 1
        obs.set_gauge("service.ingest.queue_depth", len(self.queue))
        self._on_report(report, "slide")

    async def _call_pipeline(self, fn, *args) -> SlideReport | None:
        """Run one pipeline call off-loop; errors are counted, not fatal.

        Anything that escapes the pipeline is a slide lost to an
        unrecoverable fault, which the service survives and counts
        (``service.pipeline.errors``).
        """
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor, lambda: fn(*args)
            )
        except Exception:
            self.pipeline_errors += 1
            obs.count("service.pipeline.errors")
            return None

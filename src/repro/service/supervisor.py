"""The service supervisor: one object that owns the whole live deployment.

:class:`ServiceSupervisor` assembles the three network surfaces (ingest
listener, subscription feed, HTTP API) around one embedded pipeline, a
:class:`~repro.pipeline.system.SurveillanceSystem` built by
:func:`repro.runtime.build_system`.  With ``shards > 1`` its stages run on
worker processes whose own supervisor already handles crash-restart with
exactly-once checkpoint recovery (docs/RUNTIME.md); this layer surfaces
the restart counts on ``/healthz`` and keeps serving through recoveries.

On top of that sits the durability layer (docs/RESILIENCE.md), active
when :attr:`~repro.service.config.ServiceConfig.wal_dir` is set:

* every post-shedding sentence is journaled to a write-ahead log before
  processing, and :meth:`start` *replays* a previous incarnation's
  journal through a fresh pipeline before accepting live traffic — the
  restarted service republishes byte-identical slides and resumes
  mid-slide;
* MOD writes run behind a retry + circuit-breaker guard with a
  WAL-backed spill queue, so archival failures degrade instead of
  stalling recognition;
* a slide watchdog detects a wedged pipeline slide and hard-kills the
  shard workers, converting the stall into an ordinary checkpointed
  worker restart.

Shutdown is graceful by contract, but with a deadline:
:meth:`drain_and_stop` stops accepting ingest, drains everything already
buffered through the pipeline, flushes the final partial slide plus the
end-of-stream ``finalize``, publishes the last feed lines, disconnects
subscribers, and only then closes the MOD and the sharded runtime.  If
the pipeline wedges past ``drain_timeout_seconds`` the drain is
force-aborted (counted, journal preserved for replay) instead of hanging
the host's shutdown forever.
"""

import asyncio
import contextlib
import signal
from pathlib import Path

from repro import obs
from repro.pipeline.config import SystemConfig
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.guard import GuardedDatabase, SpillQueue
from repro.resilience.retry import BackoffPolicy
from repro.resilience.wal import IngestJournal
from repro.resilience.watchdog import SlideWatchdog
from repro.runtime.system import build_system
from repro.service.batcher import SlideBatcher
from repro.service.config import ServiceConfig
from repro.service.feed import FeedHub
from repro.service.http import HttpApi
from repro.service.ingest import IngestQueue, IngestServer
from repro.service.protocol import slide_feed_line
from repro.service.quarantine import DeadLetterBuffer
from repro.service.state import AlertRing, VesselStateStore
from repro.transport.registry import create_transport

#: Recent complex events kept for ``/alerts?since=``.
ALERT_RING_SIZE = 1024
#: MOD circuit breaker: consecutive write failures before opening.
MOD_FAILURE_THRESHOLD = 3
#: MOD circuit breaker: seconds open before admitting a probe.
MOD_RECOVERY_SECONDS = 5.0
#: MOD write retry budget: three attempts including the first; the first
#: retry waits 20 ms, doubling per attempt, capped at 1 s.
MOD_RETRY = BackoffPolicy(
    initial_seconds=0.02, multiplier=2.0, max_seconds=1.0, max_attempts=3
)


class ServiceSupervisor:
    """Lifecycle owner of the live service.

    Parameters
    ----------
    world, specs, config:
        Exactly as for :class:`~repro.pipeline.system.SurveillanceSystem`.
    service:
        Network, backpressure and durability knobs
        (:class:`ServiceConfig`).
    system_factory:
        Test hook: replaces :func:`repro.runtime.build_system` (same
        arguments) to slow or wedge the embedded pipeline (the
        load-shedding soak test injects delays).
    """

    def __init__(
        self,
        world,
        specs,
        config: SystemConfig | None = None,
        service: ServiceConfig | None = None,
        system_factory=None,
    ):
        self.config = config or SystemConfig()
        self.service = service or ServiceConfig()
        factory = system_factory or build_system
        self.system = factory(
            world,
            specs,
            self.config,
            self.service.shards,
            self.service.checkpoint_dir,
        )
        self.vessels = VesselStateStore()
        self.alert_ring = AlertRing(ALERT_RING_SIZE)
        self.queue = IngestQueue(self.service.ingest_queue_size)
        self.ingest = IngestServer(
            self.queue,
            self.service.host,
            self.service.ingest_port,
            transport=create_transport(self.service.ingest_transport),
        )
        self.feed = FeedHub(
            self.service.host,
            self.service.feed_port,
            self.service.subscriber_queue_size,
            transport=create_transport(self.service.feed_transport),
            replay_ring=self.service.feed_replay_ring,
        )
        self.http = HttpApi(self, self.service.host, self.service.http_port)
        self.deadletter = DeadLetterBuffer(self.service.deadletter_capacity)
        self.journal = self._build_journal()
        self.guard = self._guard_database()
        self.watchdog = self._build_watchdog()
        self.batcher = SlideBatcher(
            self.system,
            self.queue,
            slide_seconds=self.config.window.slide_seconds,
            on_report=self._on_report,
            on_positions=self.vessels.update,
            record_ingest=self.service.record_ingest,
            journal=self.journal,
            deadletter=self.deadletter,
            watchdog=self.watchdog,
            watermark_sources=self.service.watermark_sources,
        )
        #: Journal records replayed from a previous incarnation at start.
        self.recovered_records = (
            len(self.journal.recovered) if self.journal is not None else 0
        )
        self.forced_abort = False
        self._batcher_task: asyncio.Task | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._stopped = False

    # ------------------------------------------------------------------
    # resilience assembly
    # ------------------------------------------------------------------

    def _build_journal(self) -> IngestJournal | None:
        if self.service.wal_dir is None:
            return None
        return IngestJournal(
            self.service.wal_dir, fsync=self.service.wal_fsync
        )

    def _guard_database(self) -> GuardedDatabase:
        """Put the MOD behind retry + breaker + spill, transparently.

        The pipeline looks ``system.database`` up at call time, so
        swapping the attribute for the guard covers every staging write
        and reconstruction pass without touching the pipeline itself.
        """
        if self.service.wal_dir is not None:
            spill = SpillQueue(
                Path(self.service.wal_dir) / "spill",
                fsync=self.service.wal_fsync,
            )
        else:
            spill = SpillQueue()
        guard = GuardedDatabase(
            self.system.database,
            breaker=CircuitBreaker(
                name="mod",
                failure_threshold=MOD_FAILURE_THRESHOLD,
                recovery_seconds=MOD_RECOVERY_SECONDS,
            ),
            policy=MOD_RETRY,
            spill=spill,
        )
        self.system.database = guard
        return guard

    def _build_watchdog(self) -> SlideWatchdog | None:
        if self.service.watchdog_timeout_seconds <= 0:
            return None
        return SlideWatchdog(
            self.service.watchdog_timeout_seconds, on_stall=self._on_stall
        )

    def _on_stall(self, query_time, elapsed: float) -> None:
        """A pipeline slide overran its deadline: kill the shard workers
        so the stall becomes a WorkerCrash the checkpoint machinery
        recovers from (inline there is nothing to kill — the stall is
        counted and surfaced on ``/healthz`` instead)."""
        obs.count("service.watchdog.stalls")
        self.system.terminate_workers()

    # ------------------------------------------------------------------
    # slide fan-out
    # ------------------------------------------------------------------

    def _on_report(self, report, kind: str) -> None:
        """Publish one completed slide to every query/streaming surface."""
        self.feed.publish(slide_feed_line(report, kind))
        self.alert_ring.append(report.query_time, report.alerts)
        obs.count("service.alerts_published", len(report.alerts))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Recover the journal, bind all three servers, start the batcher.

        Recovery runs *before* the ingest listener binds, so replayed
        journal records and live traffic never interleave: the restarted
        pipeline deterministically reproduces the pre-crash slides, then
        live ingest continues the pending partial slide.
        """
        if self.journal is not None and self.journal.recovered:
            with obs.span("service.recovery"):
                await self.batcher.replay(self.journal.recovered)
        await self.ingest.start()
        await self.feed.start()
        await self.http.start()
        self._batcher_task = asyncio.ensure_future(self.batcher.run())
        if self.watchdog is not None:
            self._watchdog_task = asyncio.ensure_future(self._watch())
        obs.set_gauge("service.up", 1)

    async def _watch(self) -> None:
        interval = max(0.05, self.service.watchdog_timeout_seconds / 4)
        while True:
            await asyncio.sleep(interval)
            self.watchdog.check()

    async def _drain_pipeline(self) -> None:
        """Join the batcher, then flush the final slide and finalize."""
        if self._batcher_task is not None:
            try:
                await self._batcher_task
            except asyncio.CancelledError:
                raise
            except Exception:
                # The batcher loop died (e.g. an injected SimulatedCrash
                # escaped in a chaos run); drain what state remains.
                obs.count("service.batcher.crashed")
        await self.batcher.drain()

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: drain ingest, flush the final slide, close.

        Bounded by ``drain_timeout_seconds``: a pipeline slide wedged on
        the executor thread used to hang shutdown forever (the batcher
        join had no deadline); now the drain is force-aborted, counted,
        and the journal is preserved so the next incarnation replays
        whatever the abort abandoned.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        # 1. Stop accepting new feeds; buffered sentences keep flowing.
        await self.ingest.stop()
        self.queue.close()
        # 2. The batcher returns once the queue is drained; then flush the
        #    last partial slide and the end-of-stream finalize — all under
        #    the drain deadline.
        try:
            await asyncio.wait_for(
                self._drain_pipeline(),
                timeout=self.service.drain_timeout_seconds,
            )
        except asyncio.TimeoutError:
            self.forced_abort = True
            await self.abort()
            return
        await self._release()

    async def abort(self) -> None:
        """No-drain teardown: nothing further is flushed or finalized and
        the journal keeps its segments for the next incarnation to replay.

        What a drain past its deadline falls back to, and what the
        cluster's crash hook calls to kill one runtime abruptly.
        """
        self._stopped = True
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._batcher_task
        self.batcher.abort()
        await self.ingest.stop()
        await self._release()

    async def _release(self) -> None:
        """Close the read surfaces, then the pipeline."""
        # Disconnect subscribers after the final lines are queued.
        await self.feed.close()
        await self.http.stop()
        # Shard workers and checkpoints first, then the MOD connection
        # (staging flushed by finalize on a clean drain; closing the guard
        # also closes the spill queue).
        self.system.close()
        obs.set_gauge("service.up", 0)

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Serve until ``stop_event`` fires, then drain gracefully."""
        await stop_event.wait()
        await self.drain_and_stop()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def degraded_reasons(self) -> list[str]:
        """Why this service is ``degraded`` (empty = fully healthy).

        The service still serves while degraded — these are the "up but
        impaired" conditions a two-state health check could not express:
        an open (or probing) MOD breaker, a non-empty spill backlog, or
        a drain that had to be force-aborted.
        """
        reasons = []
        breaker = self.guard.breaker
        if breaker.state != "closed":
            reasons.append(f"mod breaker {breaker.state}")
        if len(self.guard.spill) > 0:
            reasons.append(f"spill backlog of {len(self.guard.spill)}")
        if self.forced_abort:
            reasons.append("drain force-aborted")
        return reasons

    def health(self) -> dict:
        """The ``/healthz`` payload (``status``: ``ok|degraded|down``)."""
        reasons = self.degraded_reasons()
        if self._stopped:
            status = "down"
        elif reasons:
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "degraded_reasons": reasons,
            "slides": self.batcher.slides_processed,
            "queue_depth": len(self.queue),
            "ingested": self.queue.put_count,
            "shed": self.queue.shed_count,
            "pipeline_errors": self.batcher.pipeline_errors,
            "vessels": len(self.vessels),
            "alerts_last_seq": self.alert_ring.last_seq,
            "feed_subscribers": self.feed.subscriber_count,
            "feed_evicted": self.feed.evicted_count,
            "feed_resumed": self.feed.resumed_count,
            "feed_next_seq": self.feed.next_seq,
            "shards": self.service.shards,
            "transports": {
                "ingest": self.service.ingest_transport,
                "feed": self.service.feed_transport,
            },
            "scanner": {
                "accepted": self.batcher.scanner.statistics.accepted,
                "rejected": self.batcher.scanner.statistics.rejected,
                "reassembled": self.batcher.scanner.statistics.reassembled,
                "fragmented_dropped": (
                    self.batcher.scanner.statistics.fragmented_dropped
                ),
            },
            "recovered_records": self.recovered_records,
            "forced_abort": self.forced_abort,
            "deadletter": {
                "total": self.deadletter.total,
                "held": len(self.deadletter),
            },
            "ports": self.ports(),
        }
        if self.service.watermark_sources > 0:
            payload["watermarks"] = {
                "sources": self.service.watermark_sources,
                "clocks": self.batcher.watermark_clocks,
            }
        if self.journal is not None:
            payload["wal"] = self.journal.snapshot()
        payload["mod_guard"] = self.guard.snapshot()
        if self.watchdog is not None:
            payload["watchdog"] = self.watchdog.snapshot()
        if self.service.shards > 1:
            payload["runtime_restarts"] = self.system.restart_count()
        return payload

    def ports(self) -> dict:
        """Actual bound ports (resolves ephemeral ``0`` requests)."""
        return {
            "ingest": self.ingest.port,
            "feed": self.feed.port,
            "http": self.http.port,
        }


async def run_service(
    world,
    specs,
    config: SystemConfig | None = None,
    service: ServiceConfig | None = None,
    announce=print,
) -> ServiceSupervisor:
    """Run a service until SIGINT/SIGTERM; returns after graceful drain.

    This is what ``python -m repro --serve`` calls: it installs signal
    handlers, prints the bound ports, and blocks until a signal triggers
    the drain-and-stop sequence.
    """
    supervisor = ServiceSupervisor(world, specs, config, service)
    await supervisor.start()
    if supervisor.recovered_records:
        announce(
            f"recovered {supervisor.recovered_records} journaled sentences "
            f"({supervisor.batcher.slides_processed} slides republished)"
        )
    ports = supervisor.ports()
    announce(
        f"live service up: ingest={ports['ingest']} feed={ports['feed']} "
        f"http={ports['http']} (slide={supervisor.config.window.slide_seconds}s, "
        f"shards={supervisor.service.shards})"
    )
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except NotImplementedError:  # non-Unix event loops
            signal.signal(signum, lambda *_: stop_event.set())
    await supervisor.serve_until(stop_event)
    announce(
        f"service drained: {supervisor.batcher.slides_processed} slides, "
        f"{supervisor.queue.put_count} sentences ingested, "
        f"{supervisor.queue.shed_count} shed"
    )
    return supervisor

"""The service supervisor: one object that owns the whole live deployment.

:class:`ServiceSupervisor` assembles the three network surfaces (ingest
listener, subscription feed, HTTP API) around one embedded
:class:`~repro.pipeline.system.SurveillanceSystem`, which runs every
stage and every CE in this process.

On top of that sits the durability layer (docs/RESILIENCE.md), active
when :attr:`~repro.service.config.ServiceConfig.wal_dir` is set: every
post-shedding sentence is journaled to a write-ahead log before
processing, and :meth:`start` *replays* a previous incarnation's journal
through a fresh pipeline before accepting live traffic — the restarted
service republishes byte-identical slides and resumes mid-slide.

In every deployment a pipeline exception is counted (``pipeline_errors``
on ``/healthz``): raised while a slide closes, it costs the slide; a
failed MOD write or reconstruction costs only the slide's archive,
which runs after the slide's line is published.  The batcher's slide
watchdog detects a wedged archive on the pipeline thread and counts the
stall, which ``/healthz`` reports.

Shutdown is graceful by contract, but with a deadline:
:meth:`drain_and_stop` stops accepting ingest, drains everything already
buffered through the pipeline, flushes the final partial slide plus the
end-of-stream ``finalize``, publishes the last feed lines, disconnects
subscribers, and only then closes the pipeline and its MOD.  If
the pipeline thread (an archive or ``finalize``) wedges past
:data:`DRAIN_TIMEOUT_SECONDS` the drain is
force-aborted (counted, journal preserved for replay) instead of hanging
the host's shutdown forever.
"""

import asyncio
import contextlib
import signal

from repro import obs
from repro.pipeline.config import SystemConfig
from repro.pipeline.system import SurveillanceSystem
from repro.resilience.wal import IngestJournal
from repro.service.batcher import SlideBatcher
from repro.service.config import ServiceConfig
from repro.service.feed import FeedHub
from repro.service.http import HttpApi
from repro.service.ingest import IngestQueue, IngestServer
from repro.service.protocol import slide_feed_line
from repro.service.state import AlertRing
from repro.transport import create_transport

#: Recent complex events kept for ``/alerts?since=``.
ALERT_RING_SIZE = 1024
#: Graceful-drain deadline; past it the pipeline thread's in-flight
#: archive or finalize is force-aborted instead of hanging shutdown.
DRAIN_TIMEOUT_SECONDS = 30.0


class ServiceSupervisor:
    """Lifecycle owner of the live service.

    Parameters
    ----------
    world, specs, config:
        Exactly as for :class:`~repro.pipeline.system.SurveillanceSystem`.
    service:
        Deployment settings (:class:`ServiceConfig`).
    system_factory:
        Test hook: replaces the :class:`SurveillanceSystem` constructor
        (called with ``world, specs, config``) to slow or wedge the
        embedded pipeline (the load-shedding soak test injects delays).
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
        factory = system_factory or SurveillanceSystem
        self.system = factory(world, specs, self.config)
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
            transport=create_transport(self.service.feed_transport),
        )
        self.http = HttpApi(self, self.service.host, self.service.http_port)
        self.journal = self._build_journal()
        self.batcher = SlideBatcher(
            self.system,
            self.queue,
            slide_seconds=self.config.window.slide_seconds,
            on_report=self._on_report,
            journal=self.journal,
            watermark_sources=self.service.watermark_sources,
        )
        #: Journal records replayed from a previous incarnation at start.
        self.recovered_records = (
            len(self.journal.recovered) if self.journal is not None else 0
        )
        #: The drain deadline, :data:`DRAIN_TIMEOUT_SECONDS` unless a
        #: test shortens it.
        self.drain_timeout_seconds = DRAIN_TIMEOUT_SECONDS
        self.forced_abort = False
        self._batcher_task: asyncio.Task | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._stopped = False

    def _build_journal(self) -> IngestJournal | None:
        if self.service.wal_dir is None:
            return None
        return IngestJournal(
            self.service.wal_dir, fsync=self.service.wal_fsync
        )

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
        self._watchdog_task = asyncio.ensure_future(self._watch())
        obs.set_gauge("service.up", 1)

    async def _watch(self) -> None:
        watchdog = self.batcher.watchdog
        interval = max(0.05, watchdog.timeout_seconds / 4)
        while True:
            await asyncio.sleep(interval)
            watchdog.check()

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

        Bounded by ``drain_timeout_seconds``: an archive or finalize
        wedged on the pipeline thread used to hang shutdown forever (the
        batcher join had no deadline); now the drain is force-aborted, counted,
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
                timeout=self.drain_timeout_seconds,
            )
        except asyncio.TimeoutError:
            self.forced_abort = True
            await self.abort()
            return
        await self._release()

    async def abort(self) -> None:
        """No-drain teardown: nothing further is flushed or finalized and
        the journal file stays for the next incarnation to replay.

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
        # The MOD connection (staging flushed by finalize on a clean
        # drain).
        self.system.close()
        obs.set_gauge("service.up", 0)

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Serve until ``stop_event`` fires, then drain gracefully."""
        await stop_event.wait()
        await self.drain_and_stop()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` payload (``status``: ``ok|down``).

        A lost slide does not make the service unhealthy: it is counted
        in ``pipeline_errors``, and the service keeps serving.
        """
        payload = {
            "status": "down" if self._stopped else "ok",
            "slides": self.batcher.slides_processed,
            "queue_depth": len(self.queue),
            "ingested": self.queue.put_count,
            "shed": self.queue.shed_count,
            "pipeline_errors": self.batcher.pipeline_errors,
            "vessels": self.system.vessel_count(),
            "alerts_last_seq": self.alert_ring.last_seq,
            "feed_subscribers": self.feed.subscriber_count,
            "feed_evicted": self.feed.evicted_count,
            "feed_resumed": self.feed.resumed_count,
            "feed_next_seq": self.feed.next_seq,
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
                "total": self.batcher.deadletter.total,
                "held": len(self.batcher.deadletter),
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
        payload["watchdog"] = self.batcher.watchdog.snapshot()
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
        f"http={ports['http']} (slide={supervisor.config.window.slide_seconds}s)"
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

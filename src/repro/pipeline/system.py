"""The assembled maritime surveillance system (Figure 1).

A window slide has an online half and an archive, as Figure 1 does.
:meth:`SurveillanceSystem.track` hands the Mobility Tracker the slide's
positions (detecting trajectory events in O(1)/O(m) per tuple, each
vessel in timestamp order): a live node or shard as they arrive, an
offline caller the whole slide at once.  :meth:`close_slide`, the rest
of the online half:

1. closes what the tracker took since the last close, keeping the
   closed slide's positions and snapshots pending as well,
2. runs the Compressor, emitting fresh critical points into the window
   synopsis and collecting expired "delta" points, which stay pending,
3. feeds the critical movement events to the Complex Event Recognition
   module and runs recognition at the slide's query time (recognition
   never reads the MOD),

and returns the slide's report.  :meth:`archive` then ships the pending
delta points to the staging table, (optionally) reconstructs/loads
trips in the Moving Objects Database, and frees the closed slide: the
one place a slide's state is released, so a live deployment pays for
it after the alert, not before.  :meth:`process_slide` runs all
three, so an offline caller sees an up-to-date MOD after each call; a live
deployment publishes the report in between, so no alert waits for the
archive.  Call :meth:`finalize` at end-of-stream to flush open stops and
drain the synopsis into the archive: the same skeleton, run once more
with ``final=True``.

This is the only slide path, and every stage runs in this process: area
and pairwise CEs are not MMSI-decomposable, so the one scale-out (the
gateway tier, docs/GATEWAY.md) partitions whole pipelines by vessel.

Phases are timed with :mod:`repro.obs` spans.  The measured seconds always
feed :class:`~repro.pipeline.metrics.PhaseTimings` and the
:class:`~repro.pipeline.metrics.SlideReport` (as before); when the global
metrics registry is enabled each phase additionally lands in a
``pipeline.phase.<name>`` histogram (per-slide p50/p95/p99) plus stream
counters, which is what ``--metrics-json`` reports.  A slide is recorded
into both once its archive has run.
"""

from repro import obs
from repro.ais.stream import PositionalTuple
from repro.maritime.pairwise.monitor import PairwiseMonitor
from repro.maritime.recognizer import Alert, MaritimeRecognizer
from repro.mod.database import MovingObjectDatabase
from repro.pipeline.config import SystemConfig
from repro.pipeline.metrics import PHASES, PhaseTimings, SlideReport
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import WorldModel
from repro.tracking.columnar import ColumnarTracker
from repro.tracking.compressor import Compressor
from repro.tracking.exporter import TrajectoryExporter
from repro.tracking.types import CriticalPoint


class SurveillanceSystem:
    """Streaming pipeline from positional tuples to alerts and archives.

    Each slide closes with its alerts (:meth:`close_slide`) before the
    MOD archives it (:meth:`archive`); :meth:`process_slide` does both.
    """

    def __init__(
        self,
        world: WorldModel,
        specs: dict[int, VesselSpec],
        config: SystemConfig | None = None,
    ):
        self.world = world
        self.config = config or SystemConfig()
        self.monitor = (
            PairwiseMonitor(world, self.config.pairwise_config)
            if self.config.pairwise
            else None
        )
        self.database = MovingObjectDatabase(
            world.ports, path=self.config.database_path
        )
        self.database.load_vessels(specs.values())
        self.exporter = TrajectoryExporter()
        self.timings = PhaseTimings()
        self._last_query_time: int | None = None
        #: What :meth:`archive` still owes the last closed slide, and
        #: the closed slide it frees.
        self._pending: tuple | None = None
        #: Seconds :meth:`track` spent on the open slide, and the
        #: positions it took.
        self._arrival_seconds = 0.0
        self._arrival_positions = 0
        self.tracker = ColumnarTracker(self.config.tracking)
        self.compressor = Compressor(self.config.window)
        #: Fleet-wide compression accounting, as the reports read it.
        self.statistics = self.compressor.statistics
        self.recognizer = MaritimeRecognizer(
            world,
            specs,
            window_seconds=self.config.effective_recognition_window,
            config=self.config.maritime,
            pairwise=self.config.pairwise,
            ce_scope=self.config.ce_scope,
        )

    def current_synopsis(self, mmsi: int | None = None) -> list[CriticalPoint]:
        """Critical points currently in the sliding window."""
        return self.compressor.synopsis(mmsi)

    def alerts(self) -> list[Alert]:
        """Alerts from the most recent recognition step."""
        return self.recognizer.alerts()

    def vessel_count(self) -> int:
        """Vessels currently tracked."""
        return self.tracker.vessel_count()

    def close(self) -> None:
        """Release the MOD connection (idempotent)."""
        self.database.close()

    def __enter__(self) -> "SurveillanceSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------

    def process_slide(
        self, batch: list[PositionalTuple], query_time: int
    ) -> SlideReport:
        """Process one slide's worth of arrivals and archive it; returns
        the slide report (:meth:`track`, :meth:`close_slide`, then
        :meth:`archive`)."""
        self.track(batch)
        report = self.close_slide(query_time)
        self.archive()
        return report

    def close_slide(self, query_time: int) -> SlideReport:
        """The online half of one slide past tracking: close what
        :meth:`track` took since the last close, compress, recognize.

        The slide's expired points stay pending until :meth:`archive`,
        which must run before the next slide or :meth:`finalize` (either
        raises until it has); a live deployment publishes the report in
        between.
        """
        with obs.timed_span("pipeline.slide"):
            return self._run_slide(query_time, final=False)

    def track(self, positions: list[PositionalTuple]) -> None:
        """Track positions of the open slide, in any order and any cut.

        The slide's :meth:`close_slide` returns what it would for the
        slide in ``(timestamp, mmsi)`` order, ties in arrival order: the
        tracker alone orders the slide
        (:meth:`~repro.tracking.ColumnarTracker.track`).  The seconds
        spent here count toward that slide's ``tracking`` timing.
        """
        with obs.timed_span("tracking.arrival") as phase:
            self.tracker.track(positions)
        self._arrival_seconds += phase.seconds
        self._arrival_positions += len(positions)

    def untrack(self) -> None:
        """Undo every :meth:`track` of the open slide: the slide is lost."""
        self.tracker.rollback()
        self._arrival_seconds = 0.0
        self._arrival_positions = 0

    def finalize(self) -> SlideReport | None:
        """Flush open long-lasting events and archive the whole synopsis.

        Run after the input stream is exhausted, as the paper does before
        computing Table 4 ("this computation took place after the input
        stream was exhausted and all critical points were detected").
        Timed like a slide, but not counted as one: the per-slide averages
        of Figure 10 stay averages over window slides.
        """
        if self._last_query_time is None:
            return None
        query_time = self._last_query_time + self.config.window.slide_seconds
        with obs.timed_span("pipeline.finalize"):
            report = self._run_slide(query_time, final=True)
            self.archive()
        return report

    def archive(self) -> None:
        """The archive of the last closed slide: stage its expired points
        and reconstruct trips in the MOD.

        Fills the slide's ``staging``, ``reconstruction`` and ``loading``
        timings, and only then records the slide into :attr:`timings` and
        the ``pipeline.phase.*`` histograms.  The pending points, and
        the closed slide's tracked positions and snapshots, are released
        whether or not this succeeds.
        """
        pending, self._pending = self._pending, None
        if pending is None:
            return
        report, expired, final, closed = pending
        del pending
        slide_timings = report.timings
        with obs.timed_span("pipeline.archive"):
            with obs.timed_span("staging") as phase:
                if expired:
                    self.database.stage_points(expired)
            slide_timings["staging"] = phase.seconds
            if final or (self.config.reconstruct_each_slide and expired):
                self.database.reconstruct(slide_timings)
            del closed  # the slide's positions and snapshots, off the alert path
        if not final:
            self.timings.record(slide_timings)
            self._record_slide_metrics(
                slide_timings, report.raw_positions, report.movement_events,
                report.fresh_critical_points, report.expired_critical_points,
                report.recognized_complex_events,
            )

    def archive_touches_mod(self) -> bool:
        """Whether the pending archive calls the MOD: it stages expired
        points (and may reconstruct), or it is the final one.  Any other
        archive only records the slide and releases the closed slide."""
        pending = self._pending
        return pending is not None and (pending[2] or bool(pending[1]))

    def _run_slide(self, query_time: int, final: bool) -> SlideReport:
        if self._pending is not None:
            # A second close would overwrite the expired points the MOD
            # still owes the last slide.
            raise RuntimeError(
                f"slide {self._pending[0].query_time} has not been archived"
            )
        # Staging, reconstruction and loading are filled by the archive;
        # seeding them here keeps the phases in Figure 10's order.
        slide_timings = dict.fromkeys(PHASES[:4], 0.0)
        # Read before the tracker runs, so a slide lost to an error
        # cannot carry its arrivals into the next report.
        arrival_seconds, self._arrival_seconds = self._arrival_seconds, 0.0
        raw_positions, self._arrival_positions = self._arrival_positions, 0

        with obs.timed_span("tracking") as phase:
            if final:
                events, closed = self.tracker.finalize(), None
                fresh, expired = self.compressor.slide(events, query_time)
                # Evict everything still in the window into the archive.
                expired = expired + self.compressor.synopsis()
            else:
                events, closed = self.tracker.close_slide()
                fresh, expired = self.compressor.slide(
                    events, query_time, raw_position_count=raw_positions
                )
        slide_timings["tracking"] = phase.seconds + arrival_seconds

        recognized = 0
        alerts: tuple = ()
        if self.config.enable_recognition:
            with obs.timed_span("recognition") as phase:
                if self.monitor is not None:
                    self.recognizer.ingest_facts(
                        self.monitor.observe(events, query_time),
                        arrival_time=query_time,
                    )
                self.recognizer.ingest(events, arrival_time=query_time)
                result = self.recognizer.step(query_time)
                recognized = result.complex_event_count()
                alerts = tuple(self.recognizer.alerts(result))
            slide_timings["recognition"] = phase.seconds

        report = SlideReport(
            query_time=query_time,
            raw_positions=raw_positions,
            movement_events=len(events),
            fresh_critical_points=len(fresh),
            expired_critical_points=len(expired),
            recognized_complex_events=recognized,
            alerts=alerts,
            timings=slide_timings,
            fresh_points=tuple(fresh),
        )
        self._pending = (report, expired, final, closed)
        if not final:
            self._last_query_time = query_time
        return report

    def _record_slide_metrics(
        self,
        slide_timings: dict[str, float],
        raw_positions: int,
        movement_events: int,
        fresh: int,
        expired: int,
        recognized: int,
    ) -> None:
        """Feed one slide's numbers into the global metrics registry."""
        registry = obs.get_registry()
        if not registry.enabled:
            return
        for phase, seconds in sorted(slide_timings.items()):
            registry.observe(f"pipeline.phase.{phase}", seconds)
        registry.inc("pipeline.slides")
        registry.inc("pipeline.raw_positions", raw_positions)
        registry.inc("pipeline.movement_events", movement_events)
        registry.inc("pipeline.fresh_critical_points", fresh)
        registry.inc("pipeline.expired_critical_points", expired)
        registry.inc("pipeline.recognized_complex_events", recognized)
        registry.set_gauge(
            "pipeline.compression_ratio", self.statistics.compression_ratio
        )
        registry.set_gauge("pipeline.vessels_tracked", self.vessel_count())
        tracking_seconds = slide_timings.get("tracking", 0.0)
        if tracking_seconds > 0:
            registry.set_gauge(
                "tracking.positions_per_second",
                raw_positions / tracking_seconds,
            )

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------

    def export_kml(self) -> str:
        """KML rendering of the current window synopsis."""
        return self.exporter.to_kml(self.current_synopsis())

    def export_geojson(self) -> dict:
        """GeoJSON rendering of the current window synopsis."""
        return self.exporter.to_geojson(self.current_synopsis())

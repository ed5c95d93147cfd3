"""The assembled maritime surveillance system (Figure 1).

Per window slide, :meth:`SurveillanceSystem.process_slide`:

1. runs the Mobility Tracker over the fresh positional batch (detecting
   trajectory events in O(1)/O(m) per tuple),
2. runs the Compressor, emitting fresh critical points into the window
   synopsis and collecting expired "delta" points,
3. ships the delta points to the staging table and (optionally)
   reconstructs/loads trips in the Moving Objects Database,
4. feeds the critical movement events to the Complex Event Recognition
   module and runs recognition at the slide's query time,

timing each phase.  Call :meth:`finalize` at end-of-stream to flush open
stops and drain the synopsis into the archive: the same skeleton, run once
more with ``final=True``.

This is the only slide path.  Steps 1–2 and 4 go through three small stage
operations (``_track``, ``_finalize_track``, ``_recognize``); the sharded
:class:`~repro.runtime.system.ParallelSurveillanceSystem` overrides those
to run on worker processes and inherits everything else.

Phases are timed with :mod:`repro.obs` spans.  The measured seconds always
feed :class:`~repro.pipeline.metrics.PhaseTimings` and the
:class:`~repro.pipeline.metrics.SlideReport` (as before); when the global
metrics registry is enabled each phase additionally lands in a
``pipeline.phase.<name>`` histogram (per-slide p50/p95/p99) plus stream
counters, which is what ``--metrics-json`` reports.
"""

from repro import obs
from repro.ais.stream import PositionalTuple
from repro.maritime.pairwise.monitor import PairwiseMonitor
from repro.maritime.recognizer import Alert, MaritimeRecognizer
from repro.mod.database import MovingObjectDatabase
from repro.pipeline.config import SystemConfig
from repro.pipeline.metrics import PhaseTimings, SlideReport
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import WorldModel
from repro.tracking.columnar import ColumnarTracker
from repro.tracking.compressor import Compressor
from repro.tracking.exporter import TrajectoryExporter
from repro.tracking.types import CriticalPoint


class SurveillanceSystem:
    """Streaming pipeline from positional tuples to alerts and archives."""

    def __init__(
        self,
        world: WorldModel,
        specs: dict[int, VesselSpec],
        config: SystemConfig | None = None,
    ):
        self.world = world
        self.config = config or SystemConfig()
        # The pairwise monitor always runs here, over the full (merged)
        # event stream, so its facts are the same at any shard count.
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
        self._start_stages(specs)

    # ------------------------------------------------------------------
    # stage operations — everything that differs when the stages run on
    # shard workers (repro.runtime.system overrides exactly this block)
    # ------------------------------------------------------------------

    def _start_stages(self, specs: dict[int, VesselSpec]) -> None:
        """Build what tracks, compresses and recognizes."""
        self.tracker = ColumnarTracker(self.config.tracking)
        self.compressor = Compressor(self.config.window)
        #: Fleet-wide compression accounting, as the reports read it.
        self.statistics = self.compressor.statistics
        self.recognizer = MaritimeRecognizer(
            self.world,
            specs,
            window_seconds=self.config.effective_recognition_window,
            config=self.config.maritime,
            pairwise=self.config.pairwise,
            pairwise_config=self.config.pairwise_config,
            ce_scope=self.config.ce_scope,
        )

    def _track(self, batch: list[PositionalTuple], query_time: int):
        """One slide of tracking + compression: (events, fresh, expired)."""
        events = self.tracker.process_batch(batch)
        fresh, expired = self.compressor.slide(
            events, query_time, raw_position_count=len(batch)
        )
        return events, fresh, expired

    def _finalize_track(self, query_time: int):
        """End of stream: (events, fresh, expired, still-in-window)."""
        events = self.tracker.finalize()
        fresh, expired = self.compressor.slide(events, query_time)
        return events, fresh, expired, self.compressor.synopsis()

    def _recognize(self, events, pair_facts, query_time: int):
        """One recognition step: (recognized CE count, alerts)."""
        if pair_facts is not None:
            self.recognizer.ingest_facts(pair_facts, arrival_time=query_time)
        self.recognizer.ingest(events, arrival_time=query_time)
        result = self.recognizer.step(query_time)
        return result.complex_event_count(), self.recognizer.alerts(result)

    def current_synopsis(self, mmsi: int | None = None) -> list[CriticalPoint]:
        """Critical points currently in the sliding window."""
        return self.compressor.synopsis(mmsi)

    def alerts(self) -> list[Alert]:
        """Alerts from the most recent recognition step."""
        return self.recognizer.alerts()

    def vessel_count(self) -> int:
        """Vessels currently tracked."""
        return self.tracker.vessel_count()

    def restart_count(self) -> int:
        """Worker restarts so far (there are no workers to restart)."""
        return 0

    def terminate_workers(self) -> int:
        """Hard-kill the stage workers, the watchdog's lever on a wedged
        slide; returns how many were killed (none run inline)."""
        return 0

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
        """Process one slide's worth of arrivals; returns the slide report."""
        return self._run_slide(batch, query_time, final=False)

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
        return self._run_slide([], query_time, final=True)

    def _run_slide(
        self, batch: list[PositionalTuple], query_time: int, final: bool
    ) -> SlideReport:
        slide_timings: dict[str, float] = {}

        with obs.timed_span("pipeline.finalize" if final else "pipeline.slide"):
            with obs.timed_span("tracking") as phase:
                if final:
                    events, fresh, expired, remaining = self._finalize_track(
                        query_time
                    )
                    # Evict everything still in the window into the archive.
                    expired = expired + remaining
                else:
                    events, fresh, expired = self._track(batch, query_time)
            slide_timings["tracking"] = phase.seconds

            with obs.timed_span("staging") as phase:
                if expired:
                    self.database.stage_points(expired)
            slide_timings["staging"] = phase.seconds

            slide_timings["reconstruction"] = 0.0
            slide_timings["loading"] = 0.0
            if final or (self.config.reconstruct_each_slide and expired):
                self.database.reconstruct(slide_timings)

            recognized = 0
            alerts: tuple = ()
            if self.config.enable_recognition:
                with obs.timed_span("recognition") as phase:
                    facts = (
                        self.monitor.observe(events, query_time)
                        if self.monitor is not None
                        else None
                    )
                    recognized, found = self._recognize(
                        events, facts, query_time
                    )
                slide_timings["recognition"] = phase.seconds
                alerts = tuple(found)

        if not final:
            self.timings.record(slide_timings)
            self._record_slide_metrics(
                slide_timings, len(batch), len(events), len(fresh),
                len(expired), recognized,
            )
            self._last_query_time = query_time
        return SlideReport(
            query_time=query_time,
            raw_positions=len(batch),
            movement_events=len(events),
            fresh_critical_points=len(fresh),
            expired_critical_points=len(expired),
            recognized_complex_events=recognized,
            alerts=alerts,
            timings=slide_timings,
            fresh_points=tuple(fresh),
        )

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

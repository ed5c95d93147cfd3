"""Observability wiring of the assembled pipeline.

Covers the contract the obs layer must not break: ``SlideReport.timings``
keys still match :data:`~repro.pipeline.metrics.PHASES`, and an enabled
registry sees per-phase histograms whose counts equal the slides run.
"""

import pytest

from repro import obs
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.obs import MetricsRegistry
from repro.obs.report import build_pipeline_report
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.pipeline.metrics import PHASES
from repro.tracking import WindowSpec


@pytest.fixture()
def system(world, small_fleet):
    config = SystemConfig(window=WindowSpec.of_hours(1, 0.25))
    return SurveillanceSystem(world, small_fleet["specs"], config)


def run_stream(system, stream, slide=900):
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    reports = []
    for query_time, batch in StreamReplayer(arrivals, slide).batches():
        reports.append(system.process_slide(batch, query_time))
    return reports


class TestSlideReportRegression:
    def test_timings_keys_match_phases(self, system, small_fleet):
        """Every timing key a slide reports must be a declared phase."""
        reports = run_stream(system, small_fleet["stream"])
        assert reports
        for report in reports:
            assert set(report.timings) <= set(PHASES)
            # The always-on phases are present on every slide.
            assert {"tracking", "staging", "recognition"} <= set(report.timings)

    def test_phase_timings_unaffected_by_enabled_metrics(
        self, world, small_fleet
    ):
        config = SystemConfig(window=WindowSpec.of_hours(1, 0.25))
        with obs.activate(MetricsRegistry()):
            system = SurveillanceSystem(world, small_fleet["specs"], config)
            run_stream(system, small_fleet["stream"])
        assert system.timings.slides > 0
        assert system.timings.average("tracking") > 0.0


class TestRegistryCollection:
    def test_phase_histograms_count_slides(self, world, small_fleet):
        config = SystemConfig(window=WindowSpec.of_hours(1, 0.25))
        with obs.activate(MetricsRegistry()) as registry:
            system = SurveillanceSystem(world, small_fleet["specs"], config)
            reports = run_stream(system, small_fleet["stream"])
        slides = len(reports)
        for phase in PHASES:
            histogram = registry.histogram(f"pipeline.phase.{phase}")
            assert histogram.count == slides, phase
        assert registry.counter("pipeline.slides").value == slides
        assert registry.counter("pipeline.raw_positions").value == sum(
            r.raw_positions for r in reports
        )
        assert registry.counter("pipeline.movement_events").value == sum(
            r.movement_events for r in reports
        )

    def test_slide_timings_cover_the_slide_span(self, world, small_fleet):
        """Σ ``SlideReport.timings`` ≥ 95 % of the ``pipeline.slide`` and
        ``pipeline.archive`` spans, a slide's two halves.

        The five phase clocks are the pipeline's own account of a slide;
        work that runs between them (staging reads used to) is a cost no
        phase owns.  A clock gap is systematic, scheduler noise is not:
        the best of three replays has to clear the bar.
        """
        config = SystemConfig(
            window=WindowSpec.of_hours(1, 0.25), reconstruct_each_slide=True
        )
        coverage = []
        for _ in range(3):
            with obs.activate(MetricsRegistry()) as registry:
                system = SurveillanceSystem(world, small_fleet["specs"], config)
                reports = run_stream(system, small_fleet["stream"])
            spans = registry.snapshot()["spans"]
            halves = [spans["pipeline.slide"], spans["pipeline.archive"]]
            assert [half["count"] for half in halves] == [len(reports)] * 2
            timed = sum(sum(report.timings.values()) for report in reports)
            coverage.append(timed / sum(half["total"] for half in halves))
        assert max(coverage) >= 0.95, coverage

    def test_span_tree_covers_components(self, world, small_fleet):
        config = SystemConfig(window=WindowSpec.of_hours(1, 0.25))
        with obs.activate(MetricsRegistry()) as registry:
            system = SurveillanceSystem(world, small_fleet["specs"], config)
            run_stream(system, small_fleet["stream"])
        paths = registry.span_paths()
        assert "pipeline.slide" in paths
        assert "pipeline.slide/tracking/tracking.close_slide" in paths
        assert "pipeline.slide/tracking/tracking.compressor.slide" in paths
        assert "pipeline.archive/staging/mod.stage_points" in paths
        assert (
            "pipeline.slide/recognition/recognition.step/rtec.step" in paths
        )

    def test_disabled_registry_records_nothing(self, system, small_fleet):
        assert not obs.is_enabled()
        run_stream(system, small_fleet["stream"])
        snapshot = obs.get_registry().snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == {}


class TestPipelineReport:
    def test_report_structure(self, world, small_fleet):
        config = SystemConfig(window=WindowSpec.of_hours(1, 0.25))
        with obs.activate(MetricsRegistry()) as registry:
            system = SurveillanceSystem(world, small_fleet["specs"], config)
            reports = run_stream(system, small_fleet["stream"])
            report = build_pipeline_report(
                system, registry, config={"vessels": 12}
            )
        assert report["schema"] == "repro.obs/pipeline-v1"
        assert report["config"] == {"vessels": 12}
        assert report["slides"] == len(reports)
        assert set(report["phases"]) == set(PHASES)
        for stats in report["phases"].values():
            assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
            assert stats["slides"] == len(reports)
        throughput = report["throughput"]
        assert throughput["raw_positions"] == sum(
            r.raw_positions for r in reports
        )
        assert throughput["positions_per_sec"] > 0
        assert throughput["events_per_sec"] > 0
        assert 0.0 <= report["compression_ratio"] <= 1.0
        assert "spans" in report["metrics"]

    def test_report_json_serializable(self, world, small_fleet):
        import json

        config = SystemConfig(window=WindowSpec.of_hours(1, 0.25))
        with obs.activate(MetricsRegistry()) as registry:
            system = SurveillanceSystem(world, small_fleet["specs"], config)
            run_stream(system, small_fleet["stream"])
            report = build_pipeline_report(system, registry)
        parsed = json.loads(json.dumps(report))
        assert parsed["slides"] == report["slides"]

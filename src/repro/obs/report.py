"""Machine-readable pipeline reports built from a metrics registry.

The paper reports per-slide processing cost (Figures 6, 7, 10, 11),
throughput under scaled arrival rates (Figure 7) and compression ratio
(Figure 9).  :func:`build_pipeline_report` assembles exactly those numbers
from a :class:`~repro.obs.registry.MetricsRegistry` that observed a
:class:`~repro.pipeline.system.SurveillanceSystem` run, in the JSON layout
that ``--metrics-json`` writes::

    {
      "schema": "repro.obs/pipeline-v1",
      "slides": 24,
      "phases": {"tracking": {"p50_ms": ..., "p95_ms": ..., ...}, ...},
      "tracking": {"positions_per_sec": ...},
      "throughput": {"positions_per_sec": ..., "events_per_sec": ..., ...},
      "compression_ratio": 0.94,
      "metrics": {... full registry snapshot ...}
    }

``phases`` keys follow :data:`repro.pipeline.metrics.PHASES`;
``*_per_sec`` rates divide stream totals by the summed in-pipeline
processing time (not simulated time), i.e. they answer "how fast does this
machine chew through the stream", the Figure-7 question.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - types only
    from os import PathLike

    from repro.obs.registry import Histogram, MetricsRegistry

SCHEMA = "repro.obs/pipeline-v1"

#: Histogram-name prefix under which the pipeline records per-phase
#: per-slide seconds (``SurveillanceSystem.archive`` →
#: ``_record_slide_metrics``).
PHASE_HISTOGRAM_PREFIX = "pipeline.phase."


def _phase_summary(histogram: Histogram) -> dict[str, float]:
    """Millisecond-denominated summary of one phase histogram."""
    summary = histogram.summary()
    return {
        "slides": summary["count"],
        "total_s": summary["total"],
        "mean_ms": summary["mean"] * 1e3,
        "p50_ms": summary["p50"] * 1e3,
        "p95_ms": summary["p95"] * 1e3,
        "p99_ms": summary["p99"] * 1e3,
        "max_ms": summary["max"] * 1e3,
    }


def build_pipeline_report(
    system: Any,
    registry: MetricsRegistry,
    config: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The standard observability report for one pipeline run.

    Parameters
    ----------
    system:
        The :class:`~repro.pipeline.system.SurveillanceSystem` that ran.
    registry:
        The (enabled) registry that collected the run's metrics.
    config:
        Optional run-configuration dict echoed verbatim into the report,
        so the report records what produced it.
    """
    from repro.pipeline.metrics import PHASES

    phases: dict[str, dict[str, float]] = {}
    processing_seconds = 0.0
    for phase in PHASES:
        histogram = registry._histograms.get(PHASE_HISTOGRAM_PREFIX + phase)
        if histogram is None:
            continue
        phases[phase] = _phase_summary(histogram)
        processing_seconds += histogram.total

    counters = {name: c.value for name, c in registry._counters.items()}
    raw_positions = counters.get("pipeline.raw_positions", 0.0)
    movement_events = counters.get("pipeline.movement_events", 0.0)
    recognized = counters.get("pipeline.recognized_complex_events", 0.0)
    statistics = system.statistics

    def rate(total: float) -> float:
        return total / processing_seconds if processing_seconds > 0 else 0.0

    tracking_seconds = phases.get("tracking", {}).get("total_s", 0.0)

    return {
        "schema": SCHEMA,
        "config": dict(config or {}),
        "slides": system.timings.slides,
        "phases": phases,
        "tracking": {
            "positions_per_sec": (
                raw_positions / tracking_seconds
                if tracking_seconds > 0
                else 0.0
            ),
        },
        "throughput": {
            "raw_positions": int(raw_positions),
            "movement_events": int(movement_events),
            "critical_points": statistics.critical_points,
            "recognized_complex_events": int(recognized),
            "processing_seconds": processing_seconds,
            "positions_per_sec": rate(raw_positions),
            "events_per_sec": rate(movement_events),
        },
        "compression_ratio": statistics.compression_ratio,
        "metrics": registry.snapshot(),
    }


def write_report(report: dict[str, Any], path: str | PathLike[str]) -> None:
    """Write a report as indented JSON (trailing newline included)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

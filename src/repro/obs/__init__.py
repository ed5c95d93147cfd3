"""Observability: metrics registry, tracing spans, pipeline reports.

Every perf claim in this repo should be backed by a number this package
produced.  It has three parts:

* :mod:`repro.obs.registry` — named counters, gauges and p50/p95/p99
  histograms owned by a :class:`MetricsRegistry`;
* :mod:`repro.obs.spans` — hierarchical ``with span("name")`` timing
  regions recorded into the registry;
* :mod:`repro.obs.report` — the machine-readable pipeline report behind
  ``--metrics-json``.

A process-wide default registry starts **disabled** so the instrumented
hot paths (tracker, compressor, RTEC engine, MOD) cost one branch per
batch when nobody is measuring.  Enable it globally::

    from repro import obs
    obs.enable()
    ...  # run the pipeline
    print(obs.get_registry().snapshot())

or scope a fresh registry to one run (what the CLI and the benchmarks do)::

    with obs.activate(obs.MetricsRegistry()) as registry:
        ...  # run
        report = build_pipeline_report(system, registry)

Module-level helpers (``span``, ``count``, ``observe``, ``set_gauge``)
always act on the *current* global registry.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.spans import NULL_SPAN, Span, _NullSpan

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "activate",
    "count",
    "disable",
    "enable",
    "get_registry",
    "is_enabled",
    "observe",
    "render_prometheus",
    "set_gauge",
    "set_registry",
    "span",
    "timed_span",
]

#: The process-wide default registry; disabled until someone opts in.
_REGISTRY = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The current global registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextmanager
def activate(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (enabled) as the global one."""
    registry.enabled = True
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def enable() -> MetricsRegistry:
    """Turn on collection in the global registry."""
    _REGISTRY.enabled = True
    return _REGISTRY


def disable() -> MetricsRegistry:
    """Turn off collection in the global registry."""
    _REGISTRY.enabled = False
    return _REGISTRY


def is_enabled() -> bool:
    """Whether the global registry is collecting."""
    return _REGISTRY.enabled


def span(name: str) -> Span | _NullSpan:
    """Open a timing span on the global registry (no-op when disabled)."""
    return _REGISTRY.span(name)


def timed_span(name: str) -> Span | _NullSpan:
    """A span that *always* measures wall-clock, recording only if enabled.

    The pipeline's phase timings feed
    :class:`~repro.pipeline.metrics.PhaseTimings` unconditionally, so its
    spans must tick even with metrics off.
    """
    return _REGISTRY.span(name, always=True)


def count(name: str, amount: float = 1.0) -> None:
    """Increment a counter on the global registry (no-op when disabled)."""
    _REGISTRY.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the global registry (no-op when disabled)."""
    _REGISTRY.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the global registry (no-op when disabled)."""
    _REGISTRY.set_gauge(name, value)

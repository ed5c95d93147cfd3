"""The metrics registry: counters, gauges and quantile histograms.

The paper's whole evaluation (Figures 6-11) is built from *measured*
per-slide costs; this module is the measurement substrate.  A
:class:`MetricsRegistry` owns named instruments:

* :class:`Counter` — monotonically increasing totals (positions consumed,
  movement events detected, trips loaded);
* :class:`Gauge` — last-written values (current compression ratio, vessels
  tracked);
* :class:`Histogram` — streaming distributions with p50/p95/p99 quantiles
  (per-slide phase latencies).

Instruments are created on first use and live for the registry's lifetime.
A registry can be *disabled*: the convenience recorders (:meth:`inc`,
:meth:`set_gauge`, :meth:`observe`) and :meth:`span` become no-ops, so
instrumented hot paths pay only one attribute check.  The registry is
deliberately lock-free — like the paper's main-memory tracker it assumes a
single-threaded pipeline; use one registry per worker when partitioning.
The one exception is the span stack, kept per thread: the live service
records from its event loop and its pipeline thread, and a cluster's
runtimes archive on several threads of one process.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.spans import Span, _NullSpan

#: Quantiles reported in snapshots, as (label, q) pairs.
SNAPSHOT_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: Quantiles exposed on Prometheus summaries (the ``quantile`` label).
PROMETHEUS_QUANTILES = (0.5, 0.95, 0.99)


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease: {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down; keeps the last write."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value


@dataclass
class Histogram:
    """A streaming distribution with bounded memory.

    Exact ``count``/``total``/``min``/``max``; quantiles come from a
    deterministically decimated sample reservoir.  While fewer than
    ``capacity`` observations have arrived the quantiles are exact; beyond
    that, every other retained sample is dropped and only each
    ``stride``-th subsequent observation is kept, so memory stays bounded
    at ~``capacity`` floats without any randomness (benchmark runs stay
    reproducible).
    """

    name: str
    capacity: int = 4096
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    _samples: list[float] = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)
    _phase: int = field(default=0, repr=False)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._samples.append(value)
            if len(self._samples) >= 2 * self.capacity:
                del self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) with linear interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        position = q * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction

    def summary(self) -> dict[str, float]:
        """Plain-dict summary: count, mean, min/max and the quantiles."""
        if self.count == 0:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0,
                    **{label: 0.0 for label, _ in SNAPSHOT_QUANTILES}}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **{label: self.quantile(q) for label, q in SNAPSHOT_QUANTILES},
        }


class MetricsRegistry:
    """Named instruments plus the active-span stack for tracing.

    Parameters
    ----------
    enabled:
        When ``False`` the recording helpers are no-ops and
        :meth:`span` hands out a shared null span; instruments fetched
        directly still work, so tests can poke them explicitly.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: span-path -> duration histogram, kept apart from user histograms
        self._span_histograms: dict[str, Histogram] = {}
        #: per thread, the stack of its open Span objects (innermost last)
        self._threads = threading.local()

    @property
    def _span_stack(self) -> list[Span]:
        """The calling thread's open spans: threads that record at once
        (the event loop, one pipeline thread per runtime of a cluster)
        nest only their own spans."""
        try:
            stack: list[Span] = self._threads.span_stack
        except AttributeError:
            stack = self._threads.span_stack = []
        return stack

    # -- instrument access ----------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, capacity: int = 4096) -> Histogram:
        """Get or create a histogram."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, capacity)
        return instrument

    # -- recording helpers (no-ops when disabled) ------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter, unless disabled."""
        if self.enabled:
            self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge, unless disabled."""
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram observation, unless disabled."""
        if self.enabled:
            self.histogram(name).observe(value)

    # -- spans -----------------------------------------------------------

    def span(self, name: str, always: bool = False) -> Span | _NullSpan:
        """A timing span context manager (see :mod:`repro.obs.spans`).

        Disabled registries return a shared no-op span unless ``always``
        is set — pipeline phases pass ``always=True`` because their
        measured seconds feed :class:`repro.pipeline.metrics.PhaseTimings`
        even when metrics collection is off.
        """
        from repro.obs.spans import NULL_SPAN, Span

        if not self.enabled and not always:
            return NULL_SPAN
        return Span(self, name)

    def current_span(self) -> Span | None:
        """The innermost open span, or ``None``."""
        return self._span_stack[-1] if self._span_stack else None

    def record_span(self, path: str, seconds: float) -> None:
        """Record a completed span duration (called by ``Span.__exit__``)."""
        histogram = self._span_histograms.get(path)
        if histogram is None:
            histogram = self._span_histograms[path] = Histogram(path)
        histogram.observe(seconds)

    def span_histogram(self, path: str) -> Histogram | None:
        """Duration histogram of one span path, if it was ever recorded."""
        return self._span_histograms.get(path)

    def span_paths(self) -> list[str]:
        """All recorded span paths, sorted."""
        return sorted(self._span_histograms)

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument and recorded span, and the calling
        thread's open spans (keeps enablement)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._span_histograms.clear()
        self._span_stack.clear()

    def snapshot(self) -> dict[str, Any]:
        """Machine-readable dump of every instrument.

        Layout::

            {"counters": {name: value},
             "gauges": {name: value},
             "histograms": {name: summary-dict},
             "spans": {path: summary-dict}}
        """
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
            "spans": {
                path: histogram.summary()
                for path, histogram in sorted(self._span_histograms.items())
            },
        }


# -- Prometheus text-format export ---------------------------------------

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitize an instrument name into a legal Prometheus metric name.

    Dots (the registry's namespacing convention) and any other illegal
    characters become underscores; a ``repro_`` prefix namespaces the
    whole export.
    """
    sanitized = _INVALID_METRIC_CHARS.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _format_value(value: float) -> str:
    """Render a sample value; integers lose the trailing ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_summary(lines: list[str], name: str, histogram: Histogram) -> None:
    """One histogram as a Prometheus ``summary`` family."""
    lines.append(f"# TYPE {name} summary")
    for q in PROMETHEUS_QUANTILES:
        value = histogram.quantile(q) if histogram.count else 0.0
        lines.append(f'{name}{{quantile="{q}"}} {_format_value(value)}')
    lines.append(f"{name}_sum {_format_value(histogram.total)}")
    lines.append(f"{name}_count {histogram.count}")


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Render a registry in the Prometheus text exposition format (0.0.4).

    Counters gain the conventional ``_total`` suffix, histograms and span
    durations are exposed as summaries with ``quantile`` labels plus
    ``_sum``/``_count``, and span paths land under ``<prefix>_span_``.
    The output ends with a trailing newline, as the format requires.
    """
    lines: list[str] = []
    for name, counter in sorted(registry._counters.items()):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counter.value)}")
    for name, gauge in sorted(registry._gauges.items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge.value)}")
    for name, histogram in sorted(registry._histograms.items()):
        _render_summary(lines, _metric_name(name, prefix), histogram)
    span_prefix = f"{prefix}_span" if prefix else "span"
    for path, histogram in sorted(registry._span_histograms.items()):
        _render_summary(lines, _metric_name(path, span_prefix), histogram)
    return "\n".join(lines) + "\n" if lines else "\n"

"""Hierarchical timing spans.

A span measures the wall-clock duration of one block and records it into
its registry's span histograms under a *path*: spans opened inside another
span are children, and their path is ``parent-path + "/" + name``.  The
pipeline's per-slide phases therefore show up as, e.g.::

    pipeline.slide
    pipeline.slide/tracking
    pipeline.slide/tracking/tracking.close_slide

so one registry snapshot is simultaneously the Figure-10 phase breakdown
and a drill-down into each phase's interior.

Usage::

    with registry.span("tracking.close_slide"):
        events, closed = tracker.close_slide()

A disabled registry hands out :data:`NULL_SPAN`, a shared singleton whose
enter/exit do nothing at all — no clock reads, no allocation — so
instrumented hot paths cost one branch when metrics are off.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.registry import MetricsRegistry


class Span:
    """One open timing region; records its duration on exit.

    Attributes
    ----------
    name:
        The local name passed to ``span()``.
    path:
        Slash-joined ancestry, set on ``__enter__`` from the registry's
        span stack.
    seconds:
        Measured duration, available after ``__exit__`` (0.0 before).
    """

    __slots__ = ("registry", "name", "path", "parent", "seconds", "_started")

    def __init__(self, registry: MetricsRegistry, name: str):
        self.registry = registry
        self.name = name
        self.path = name
        self.parent: Span | None = None
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> Span:
        stack = self.registry._span_stack
        self.parent = stack[-1] if stack else None
        if self.parent is not None:
            self.path = f"{self.parent.path}/{self.name}"
        stack.append(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._started
        stack = self.registry._span_stack
        if stack and stack[-1] is self:
            stack.pop()
        if self.registry.enabled:
            self.registry.record_span(self.path, self.seconds)

    def __repr__(self) -> str:
        return f"Span({self.path!r}, seconds={self.seconds:.6f})"


class _NullSpan:
    """The do-nothing span a disabled registry hands out."""

    __slots__ = ()
    name = ""
    path = ""
    parent = None
    seconds = 0.0

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: Shared no-op span; identity-comparable for tests.
NULL_SPAN = _NullSpan()

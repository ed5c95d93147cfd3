"""Tests for hierarchical timing spans and the global registry helpers."""

import threading

import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.obs.spans import NULL_SPAN, Span


class TestSpanTiming:
    def test_records_duration(self):
        registry = MetricsRegistry()
        with registry.span("work") as span:
            pass
        assert span.seconds >= 0.0
        histogram = registry.span_histogram("work")
        assert histogram is not None
        assert histogram.count == 1

    def test_repeated_spans_accumulate(self):
        registry = MetricsRegistry()
        for _ in range(3):
            with registry.span("loop"):
                pass
        assert registry.span_histogram("loop").count == 3


class TestSpanNesting:
    def test_child_path_prefixed_by_parent(self):
        registry = MetricsRegistry()
        with registry.span("outer") as outer:
            with registry.span("inner") as inner:
                assert inner.parent is outer
                assert registry.current_span() is inner
            assert registry.current_span() is outer
        assert registry.current_span() is None
        assert outer.path == "outer"
        assert inner.path == "outer/inner"
        assert registry.span_paths() == ["outer", "outer/inner"]

    def test_three_levels(self):
        registry = MetricsRegistry()
        with registry.span("a"), registry.span("b"), registry.span("c") as c:
            pass
        assert c.path == "a/b/c"

    def test_siblings_share_parent_path(self):
        registry = MetricsRegistry()
        with registry.span("parent"):
            with registry.span("child"):
                pass
            with registry.span("child"):
                pass
        assert registry.span_histogram("parent/child").count == 2

    def test_exception_still_pops_and_records(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError), registry.span("fails"):
            raise RuntimeError("boom")
        assert registry.current_span() is None
        assert registry.span_histogram("fails").count == 1


def _interleaved(registry: MetricsRegistry, always: bool) -> list[Span | None]:
    """Two threads open spans in turn, ``a`` holding ``a1`` on one and
    ``b`` on the other, and close them out of stack order, as four
    pipeline threads of one process do; returns each thread's innermost
    span at the end."""
    steps = [threading.Event() for _ in range(4)]
    left: list = []

    def first():
        with registry.span("a", always):
            steps[0].set()
            steps[1].wait()
            with registry.span("a1", always):
                pass
        steps[2].set()
        steps[3].wait()
        left.append(registry.current_span())

    def second():
        steps[0].wait()
        with registry.span("b", always):
            steps[1].set()
            steps[2].wait()
        steps[3].set()
        left.append(registry.current_span())

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    return [*left, registry.current_span()]


class TestSpanThreads:
    def test_interleaved_threads_nest_only_their_own_spans(self):
        registry = MetricsRegistry()
        assert _interleaved(registry, always=False) == [None, None, None]
        assert registry.span_paths() == ["a", "a/a1", "b"]

    def test_disabled_timed_spans_leave_no_stack_behind(self):
        # Timed spans tick with the registry off, so they are stacked too.
        registry = MetricsRegistry(enabled=False)
        assert _interleaved(registry, always=True) == [None, None, None]
        assert registry.span_paths() == []


class TestDisabledSpans:
    def test_disabled_registry_hands_out_null_span(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.span("anything") is NULL_SPAN

    def test_null_span_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        with registry.span("hot.path"):
            pass
        assert registry.span_paths() == []

    def test_always_span_times_without_recording(self):
        # Pipeline phases must tick even when metrics are off: their
        # seconds feed PhaseTimings/SlideReport unconditionally.
        registry = MetricsRegistry(enabled=False)
        with registry.span("phase", always=True) as span:
            sum(range(1000))
        assert span is not NULL_SPAN
        assert span.seconds > 0.0
        assert registry.span_paths() == []


class TestGlobalHelpers:
    def test_global_registry_disabled_by_default(self):
        assert not obs.is_enabled()
        assert obs.span("x") is NULL_SPAN

    def test_activate_scopes_a_registry(self):
        scoped = MetricsRegistry()
        before = obs.get_registry()
        with obs.activate(scoped) as registry:
            assert registry is scoped
            assert obs.get_registry() is scoped
            obs.count("events", 2)
            with obs.span("outer"), obs.span("inner"):
                pass
        assert obs.get_registry() is before
        assert scoped.counter("events").value == 2.0
        assert scoped.span_paths() == ["outer", "outer/inner"]

    def test_activate_restores_on_error(self):
        before = obs.get_registry()
        with pytest.raises(ValueError), obs.activate(MetricsRegistry()):
            raise ValueError("boom")
        assert obs.get_registry() is before

    def test_enable_disable_roundtrip(self):
        assert not obs.is_enabled()
        try:
            obs.enable()
            assert obs.is_enabled()
        finally:
            obs.disable()
        assert not obs.is_enabled()

    def test_timed_span_measures_when_disabled(self):
        assert not obs.is_enabled()
        with obs.timed_span("phase") as span:
            sum(range(1000))
        assert span.seconds > 0.0

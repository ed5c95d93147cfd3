"""Slide watchdog: stall detection, counted once per stalled slide."""

import pytest

from repro import obs
from repro.resilience.watchdog import SlideWatchdog


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSlideWatchdog:
    def test_no_stall_while_idle_or_fast(self):
        clock = FakeClock()
        watchdog = SlideWatchdog(10.0, clock=clock)
        assert not watchdog.check()  # nothing running
        watchdog.slide_started(1800)
        clock.now = 5.0
        assert not watchdog.check()  # under the deadline
        watchdog.slide_finished()
        clock.now = 100.0
        assert not watchdog.check()  # finished slides can't stall
        assert watchdog.stalls_detected == 0
        assert watchdog.slides_seen == 1

    def test_overrun_fires_with_query_time_and_elapsed(self):
        clock = FakeClock()
        watchdog = SlideWatchdog(10.0, clock=clock)
        watchdog.slide_started(3600)
        clock.now = 12.0
        with obs.activate(obs.MetricsRegistry()) as registry:
            assert watchdog.check()
        assert registry.counter("resilience.watchdog.stalls").value == 1
        assert watchdog.snapshot() == {
            "timeout_seconds": 10.0,
            "slide_running": True,
            "current_query_time": 3600,
            "slides_seen": 0,
            "stalls_detected": 1,
        }

    def test_persisting_stall_is_counted_once(self):
        clock = FakeClock()
        watchdog = SlideWatchdog(10.0, clock=clock)
        watchdog.slide_started(3600)
        with obs.activate(obs.MetricsRegistry()) as registry:
            for now in (10.0, 15.0, 25.0, 500.0):
                clock.now = now
                assert watchdog.check() == (now == 10.0)
        assert watchdog.stalls_detected == 1
        assert registry.counter("resilience.watchdog.stalls").value == 1

    def test_each_stalled_slide_counts(self):
        clock = FakeClock()
        watchdog = SlideWatchdog(10.0, clock=clock)
        watchdog.slide_started(3600)
        clock.now = 11.0
        assert watchdog.check()
        watchdog.slide_finished()
        watchdog.slide_started(5400)
        clock.now = 25.0
        assert watchdog.check()
        assert watchdog.stalls_detected == 2

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            SlideWatchdog(timeout_seconds=0)

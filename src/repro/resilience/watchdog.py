"""Stalled-slide detection for the live service.

A pipeline slide runs on a single-worker executor thread; if it wedges
(a hung sqlite call, an injected ``service.slide:delay``), the batcher's
await never returns and — without a watchdog — the whole service
silently stops producing slides while still accepting ingest.
:class:`SlideWatchdog` tracks slide start/finish beats from the event
loop and counts a slide that overruns its deadline, once per slide, so
``/healthz`` shows the stall.  Every slide batcher owns one.  It only
detects: the whole pipeline runs in this process, so there is nothing
to kill, and the supervisor's drain deadline is what bounds a wedge at
shutdown.
"""

import time

from repro import obs


class SlideWatchdog:
    """Deadline monitor for pipeline slides.

    Parameters
    ----------
    timeout_seconds:
        A slide running longer than this is considered stalled.
    clock:
        Injectable monotonic clock for sleep-free tests.
    """

    def __init__(self, timeout_seconds: float, clock=time.monotonic):
        if timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive: {timeout_seconds}"
            )
        self.timeout_seconds = timeout_seconds
        self._clock = clock
        self._started_at: float | None = None
        self._query_time: int | None = None
        self._counted = False
        self.slides_seen = 0
        self.stalls_detected = 0

    # -- beats (called from the batcher) --------------------------------

    def slide_started(self, query_time: int) -> None:
        self._started_at = self._clock()
        self._query_time = query_time
        self._counted = False

    def slide_finished(self) -> None:
        self._started_at = None
        self._query_time = None
        self.slides_seen += 1

    # -- the periodic check ---------------------------------------------

    def check(self) -> bool:
        """One watchdog tick; returns True when it detects a new stall."""
        if self._started_at is None or self._counted:
            return False
        if self._clock() - self._started_at < self.timeout_seconds:
            return False
        self._counted = True
        self.stalls_detected += 1
        obs.count("resilience.watchdog.stalls")
        return True

    def snapshot(self) -> dict:
        return {
            "timeout_seconds": self.timeout_seconds,
            "slide_running": self._started_at is not None,
            "current_query_time": self._query_time,
            "slides_seen": self.slides_seen,
            "stalls_detected": self.stalls_detected,
        }

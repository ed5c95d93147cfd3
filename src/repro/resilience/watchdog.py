"""Stalled-archive detection for the live service.

A slide's archive (the MOD's staging and reconstruction) runs on the
batcher's single-worker pipeline thread; if it wedges (a hung sqlite
call), the batcher's await never returns and — without a watchdog — the
whole service silently stops producing slides while still accepting
ingest.  :class:`SlideWatchdog` takes start/finish beats from the event
loop and counts an archive that overruns its deadline, once per beat,
so ``/healthz`` shows the stall.  Every slide batcher owns one.  It
cannot see work that holds the event loop, since its ticks run there:
a slide's close, or an injected ``service.slide:delay``, which sleeps on
the loop before the close, is late but never a stall.  It only
detects: the whole pipeline runs in this process, so there is nothing
to kill, and the supervisor's drain deadline is what bounds a wedge at
shutdown.
"""

import time

from repro import obs


class SlideWatchdog:
    """Deadline monitor for the pipeline thread's work.

    Parameters
    ----------
    timeout_seconds:
        A beat running longer than this is considered stalled.
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
        #: Finished slides; an archive's beat is not one.
        self.slides_seen = 0
        self.stalls_detected = 0

    # -- beats (called from the batcher) --------------------------------

    def slide_started(self, query_time: int) -> None:
        self._started_at = self._clock()
        self._query_time = query_time
        self._counted = False

    def slide_finished(self, archive: bool = False) -> None:
        """End the running beat, if any; count a slide unless ``archive``."""
        self._started_at = None
        self._query_time = None
        if not archive:
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

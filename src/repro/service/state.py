"""Query-side state of the live service.

The HTTP API answers "where is vessel X right now?" from the Mobility
Tracker itself (:mod:`repro.service.http`), and "what happened
recently?" from :class:`AlertRing`, a bounded ring of recognized complex
events addressable by a monotone sequence number, so pollers can resume
with ``/alerts?since=<seq>``.
"""

from repro.maritime.recognizer import Alert
from repro.service.protocol import alert_to_dict


class AlertRing:
    """Bounded ring of recent alerts with monotone sequence numbers.

    ``since(n)`` returns every retained alert with sequence > ``n`` —
    clients poll with the ``last_seq`` of their previous response.  The
    ring never blocks the pipeline: old alerts simply fall off.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: list[dict] = []
        self._next_seq = 1

    def append(self, query_time: int, alerts: tuple[Alert, ...]) -> None:
        """Record one slide's alerts."""
        for alert in alerts:
            entry = {"seq": self._next_seq, "query_time": query_time}
            entry.update(alert_to_dict(alert))
            self._entries.append(entry)
            self._next_seq += 1
        if len(self._entries) > self.capacity:
            del self._entries[: len(self._entries) - self.capacity]

    def since(self, seq: int = 0) -> list[dict]:
        """Retained alerts with sequence number greater than ``seq``."""
        if not self._entries or seq >= self._entries[-1]["seq"]:
            return []
        # Entries are seq-ordered; find the cut by simple scan from the
        # back (polling gaps are short in practice).
        index = len(self._entries)
        while index > 0 and self._entries[index - 1]["seq"] > seq:
            index -= 1
        return list(self._entries[index:])

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest alert ever appended (0 if none)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._entries)

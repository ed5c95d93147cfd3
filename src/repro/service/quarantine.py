"""Dead-letter quarantine for malformed AIVDM sentences.

The scanner's rejection *counters* say how much was dropped but not
*what*: a mis-speaking upstream feed (wrong talker, broken checksums, a
proxy mangling payloads) used to be invisible beyond a number.  The
:class:`DeadLetterBuffer` keeps the most recent rejected sentences with
their classified reason so an operator can ``curl /deadletter`` and see
the actual bytes — bounded, so a hostile or broken feed cannot grow it
without limit (the oldest entries are evicted, and evictions are
counted too).
"""

import time
from collections import Counter, deque
from dataclasses import dataclass

from repro import obs


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined sentence; ``reason`` is the cause the scanner
    named for it (:attr:`~repro.ais.scanner.DataScanner.rejections`)."""

    receive_time: int
    sentence: str
    reason: str
    quarantined_at: float

    def to_dict(self) -> dict:
        return {
            "receive_time": self.receive_time,
            "sentence": self.sentence,
            "reason": self.reason,
            "quarantined_at": self.quarantined_at,
        }


class DeadLetterBuffer:
    """Bounded ring of recently rejected sentences, by reason."""

    def __init__(self, capacity: int, clock=time.time):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._letters: deque[DeadLetter] = deque(maxlen=capacity)
        self._by_reason: Counter = Counter()
        self.total = 0
        self.evicted = 0

    def quarantine(self, receive_time: int, sentence: str, reason: str) -> None:
        """Record one rejected sentence under its classified reason."""
        if len(self._letters) == self.capacity:
            self.evicted += 1
            obs.count("service.deadletter.evicted")
        self._letters.append(
            DeadLetter(receive_time, sentence, reason, self._clock())
        )
        self._by_reason[reason] += 1
        self.total += 1
        obs.count("service.deadletter.quarantined")
        obs.count(f"service.deadletter.{reason}")

    def recent(self, limit: int = 50) -> list[dict]:
        """The newest quarantined sentences, newest first."""
        letters = list(self._letters)[-limit:]
        return [letter.to_dict() for letter in reversed(letters)]

    def __len__(self) -> int:
        return len(self._letters)

    def snapshot(self, limit: int = 50) -> dict:
        """The ``/deadletter`` payload."""
        return {
            "total": self.total,
            "held": len(self._letters),
            "capacity": self.capacity,
            "evicted": self.evicted,
            "by_reason": dict(self._by_reason),
            "recent": self.recent(limit),
        }

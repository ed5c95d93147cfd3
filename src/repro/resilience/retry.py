"""Deterministic exponential backoff with a bounded attempt budget.

The schedule behind gateway link re-dials, runtime restarts and the
feed client's reconnects.  Randomized jitter is the usual advice for
backoff, but this tree's whole testing story is determinism — the same
seed, the same fault plan, the same transcript.  Backoff here is
therefore a pure function of the attempt number:
``initial * multiplier**(attempt-1)`` capped at ``max_seconds``.

The budget is attempts, not wall-clock: a caller can compute the exact
worst-case stall from the policy (``sum(policy.delays())``).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff schedule: deterministic and budget-capped."""

    initial_seconds: float = 0.05
    multiplier: float = 2.0
    max_seconds: float = 2.0
    #: Total tries, including the first (1 = no retries).
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.initial_seconds < 0:
            raise ValueError(
                f"initial_seconds must be >= 0: {self.initial_seconds}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")

    def delay_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based: the delay
        between the ``attempt``-th failure and the next try)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        raw = self.initial_seconds * self.multiplier ** (attempt - 1)
        return min(raw, self.max_seconds)

    def delays(self) -> list:
        """Every inter-attempt delay the policy will ever sleep — its
        worst-case total stall is ``sum(policy.delays())``."""
        return [self.delay_for(n) for n in range(1, self.max_attempts)]

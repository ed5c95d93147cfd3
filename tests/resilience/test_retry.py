"""The deterministic backoff schedule."""

import pytest

from repro.resilience.retry import BackoffPolicy


class TestBackoffPolicy:
    def test_deterministic_exponential_schedule(self):
        policy = BackoffPolicy(
            initial_seconds=0.1, multiplier=2.0, max_seconds=1.0,
            max_attempts=6,
        )
        assert policy.delays() == [0.1, 0.2, 0.4, 0.8, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(initial_seconds=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(max_attempts=0)

"""Positional tuples and stream replay.

The decoded, cleaned stream consists of append-only tuples
``(MMSI, Lon, Lat, tau)`` (Section 2).  Experiments replay a recorded stream
"little by little, reading small chunks periodically according to window
specifications" (Section 5): the window keeps pace with the *reported*
timestamps, not wall-clock simulation time.  :class:`StreamReplayer`
implements that batching.

AIS messages "may be delayed, intermittent, or conflicting"; RTEC copes with
events arriving after the query time at which they occurred (Section 4.2).
:class:`DelayModel` perturbs arrival times to generate such streams.
"""

import heapq
import random
from collections.abc import Iterable, Iterator
from typing import NamedTuple


class PositionalTuple(NamedTuple):
    """One cleaned position report: the system's fundamental stream unit."""

    mmsi: int
    lon: float
    lat: float
    timestamp: int  # seconds, discrete and totally ordered per vessel


class TimedArrival(NamedTuple):
    """A positional tuple paired with the time it reached the system.

    ``arrival`` equals ``position.timestamp`` for in-order streams; a delay
    model pushes it later, producing the out-of-order arrivals of Figure 5.
    """

    arrival: int
    position: PositionalTuple


class DelayModel:
    """Random transmission delays over a positional stream.

    Parameters
    ----------
    delay_probability:
        Fraction of messages that arrive late.
    max_delay_seconds:
        Upper bound on the (uniform) delay of a late message.
    seed:
        Seed for the internal RNG, for reproducible experiments.
    """

    def __init__(
        self,
        delay_probability: float = 0.0,
        max_delay_seconds: int = 0,
        seed: int = 0,
    ):
        if not 0.0 <= delay_probability <= 1.0:
            raise ValueError(f"delay_probability out of range: {delay_probability}")
        if max_delay_seconds < 0:
            raise ValueError(f"negative max_delay_seconds: {max_delay_seconds}")
        self.delay_probability = delay_probability
        self.max_delay_seconds = max_delay_seconds
        self._rng = random.Random(seed)

    def apply(self, positions: Iterable[PositionalTuple]) -> list[TimedArrival]:
        """Assign arrival times, re-sorted into arrival order."""
        arrivals = []
        for position in positions:
            delay = 0
            if (
                self.max_delay_seconds > 0
                and self._rng.random() < self.delay_probability
            ):
                delay = self._rng.randint(1, self.max_delay_seconds)
            arrivals.append(TimedArrival(position.timestamp + delay, position))
        arrivals.sort(key=lambda item: (item.arrival, item.position.timestamp))
        return arrivals


def first_query_time(earliest: int, slide_seconds: int) -> int:
    """The first slide boundary of a stream whose earliest time is
    ``earliest``: the smallest multiple of the slide at or after it,
    except that a stream starting at 0 first slides at ``slide_seconds``.

    The one rule behind :class:`StreamReplayer` and the live slide
    batcher, so both cut the same slides.
    """
    boundary = ((earliest + slide_seconds - 1) // slide_seconds) * slide_seconds
    if boundary == earliest == 0:
        return slide_seconds
    return boundary


class StreamReplayer:
    """Replay a positional stream in per-slide batches.

    Items are grouped by arrival time into consecutive half-open intervals
    ``(Q - slide, Q]``; each batch is handed to the window operator at query
    time ``Q``.  This mirrors the paper's simulation driver: "we replay this
    stream and the window keeps in pace with the reported timestamps".
    """

    def __init__(self, arrivals: list[TimedArrival], slide_seconds: int):
        if slide_seconds <= 0:
            raise ValueError(f"slide must be positive, got {slide_seconds}")
        self._arrivals = sorted(arrivals, key=lambda item: item.arrival)
        self.slide_seconds = slide_seconds

    def batches(self) -> Iterator[tuple[int, list[PositionalTuple]]]:
        """Yield ``(query_time, positions)`` batches in arrival order.

        Query times are consecutive multiples of the slide step starting from
        the first slide boundary at or after the earliest arrival.  Empty
        batches (no arrivals in a slide) are yielded too, since the window
        still slides and expired tuples must still be evicted.
        """
        if not self._arrivals:
            return
        slide = self.slide_seconds
        query_time = first_query_time(self._arrivals[0].arrival, slide)
        index = 0
        total = len(self._arrivals)
        while index < total:
            batch: list[PositionalTuple] = []
            while index < total and self._arrivals[index].arrival <= query_time:
                batch.append(self._arrivals[index].position)
                index += 1
            yield query_time, batch
            query_time += slide


def merge_streams(
    streams: Iterable[Iterable[PositionalTuple]],
) -> list[PositionalTuple]:
    """Merge per-vessel streams into one stream ordered by timestamp.

    Each input stream must already be timestamp-ordered (true per vessel by
    construction); the merge is a k-way heap merge.
    """
    iterators = [iter(stream) for stream in streams]
    merged = heapq.merge(*iterators, key=lambda p: p.timestamp)
    return list(merged)

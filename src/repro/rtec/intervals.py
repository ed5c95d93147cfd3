"""Maximal-interval algebra over integer time.

The paper's semantics (Section 4.1): if ``F=V`` is initiated at 10 and 20 and
terminated at 25 and 30, then ``F=V`` holds at all ``T`` with ``10 < T <= 25``
— and ``start(F=V)`` occurs at 10, ``end(F=V)`` at 25.  We therefore
represent a maximal interval as a pair ``(ts, tf)`` meaning "holds at every
T with ts < T <= tf"; ``tf`` may be :data:`OPEN` for an interval not yet
broken (holding through the current query time).

An *interval list* is a sorted list of such pairs, pairwise disjoint and
non-adjacent (maximality).  All functions below preserve that normal form.
"""

import math
from bisect import bisect_right

#: Sentinel right endpoint of an interval that has not been terminated.
OPEN = math.inf

Interval = tuple[int, float]  # (ts, tf); tf is an int or OPEN


def intervals_from_points(
    init_points: list[int], term_points: list[int]
) -> list[Interval]:
    """Compose maximal intervals from initiation and termination points.

    Implements the paper's ``holdsFor`` computation: for each initiation
    ``Ts`` not already inside an interval, the interval extends to the first
    ``Tf > Ts`` at which the value is *broken* (rules (1)-(2)); with no such
    point, the interval remains open.
    """
    if not init_points:
        return []
    inits = sorted(set(init_points))
    terms = sorted(set(term_points))
    intervals: list[Interval] = []
    current_start: int | None = None
    for ts in inits:
        if current_start is not None:
            # Still inside an open stretch: re-initiation is absorbed unless
            # a termination closed the stretch at or before this initiation.
            # A termination exactly at ts closes the old stretch yet does
            # not break the new initiation (rule (1) requires Ts < Tf), so
            # the re-initiation starts a fresh interval that merges
            # seamlessly with the old one.
            closing = _first_term_after(terms, current_start)
            if closing is None or closing > ts:
                continue
            intervals.append((current_start, closing))
            current_start = None
        current_start = ts
    if current_start is not None:
        closing = _first_term_after(terms, current_start)
        if closing is None:
            intervals.append((current_start, OPEN))
        else:
            intervals.append((current_start, closing))
    return normalize(intervals)


def _first_term_after(terms: list[int], ts: int) -> int | None:
    """First termination point strictly after ts (rule (1): Ts < Tf)."""
    index = bisect_right(terms, ts)
    if index == len(terms):
        return None
    return terms[index]


def normalize(intervals: list[Interval]) -> list[Interval]:
    """Sort, drop empties, and merge overlapping/adjacent intervals."""
    cleaned = [
        (ts, tf) for ts, tf in intervals if tf == OPEN or tf > ts
    ]
    cleaned.sort(key=lambda interval: interval[0])
    merged: list[Interval] = []
    for ts, tf in cleaned:
        if merged and ts <= merged[-1][1]:
            previous_ts, previous_tf = merged[-1]
            merged[-1] = (previous_ts, max(previous_tf, tf))
        else:
            merged.append((ts, tf))
    return merged


def _start(interval: Interval) -> int:
    return interval[0]


def holds_at(intervals: list[Interval], timepoint: int) -> bool:
    """Whether the value holds at a timepoint: any ts < T <= tf."""
    index = bisect_right(intervals, timepoint, key=_start) - 1
    # An interval starting exactly at T does not cover T (open left end),
    # but the previous one might.
    for i in (index, index - 1):
        if 0 <= i < len(intervals):
            ts, tf = intervals[i]
            if ts < timepoint <= tf:
                return True
    return False


def union_intervals(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Union of two interval lists, in normal form."""
    return normalize(list(a) + list(b))


def intersect_intervals(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Intersection of two interval lists, in normal form."""
    result: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        ts = max(a[i][0], b[j][0])
        tf = min(a[i][1], b[j][1])
        if tf == OPEN or tf > ts:
            result.append((ts, tf))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return normalize(result)


def subtract_intervals(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Relative complement a \\ b, in normal form."""
    result: list[Interval] = []
    pending = list(a)
    for b_ts, b_tf in b:
        next_pending: list[Interval] = []
        for ts, tf in pending:
            # Overlap test under (ts, tf] semantics.
            if b_tf <= ts or (tf != OPEN and b_ts >= tf):
                next_pending.append((ts, tf))
                continue
            if ts < b_ts:
                next_pending.append((ts, min(tf, b_ts)))
            if b_tf != OPEN and (tf == OPEN or b_tf < tf):
                next_pending.append((int(b_tf), tf))
        pending = next_pending
    result = pending
    return normalize(result)


def clip_intervals(
    intervals: list[Interval], lo: int, hi: int
) -> list[Interval]:
    """Restrict intervals to the window ``(lo, hi]``.

    Open right endpoints stay open (the value still holds at ``hi``).
    """
    clipped: list[Interval] = []
    for ts, tf in intervals:
        new_ts = max(ts, lo)
        new_tf = tf if tf == OPEN else min(tf, hi)
        if new_tf == OPEN or new_tf > new_ts:
            clipped.append((new_ts, new_tf))
    return normalize(clipped)


def start_points(intervals: list[Interval]) -> list[int]:
    """Occurrence times of the built-in ``start(F=V)`` event."""
    return [ts for ts, _ in intervals]


def end_points(intervals: list[Interval]) -> list[int]:
    """Occurrence times of the built-in ``end(F=V)`` event.

    Open intervals have not ended, so they contribute no end point.
    """
    return [int(tf) for _, tf in intervals if tf != OPEN]


def total_duration(intervals: list[Interval], horizon: int | None = None) -> int:
    """Summed length of the intervals; open ends clip to ``horizon``."""
    total = 0
    for ts, tf in intervals:
        if tf == OPEN:
            if horizon is None:
                raise ValueError("open interval needs a horizon for duration")
            tf = horizon
        total += max(0, int(tf) - ts)
    return total

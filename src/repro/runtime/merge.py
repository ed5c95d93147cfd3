"""Deterministic merges of per-shard outputs.

Parallelism must not change a single observable output, so every merge
here is defined by an explicit total order rather than by arrival order of
the worker replies:

* **movement events** carry ``(batch_index, k)`` tags assigned by the
  workers (position *batch_index* of the slide emitted this as its *k*-th
  event).  Sorting by tag reconstructs *exactly* the event sequence a
  single-process :class:`~repro.tracking.ColumnarTracker` produces
  when it scans the whole batch in arrival order — vessels are disjoint
  across shards, so the per-shard event lists interleave without conflict;
* **critical points** (fresh, expired, synopses) merge under the
  ``(mmsi, timestamp)`` order the compressor and synopsis APIs already
  guarantee per shard;
* **alerts** merge under the canonical report order of
  :func:`repro.maritime.recognizer.alert_sort_key`.  The sort is stable
  and any alerts tied on that key belong to one area (or, for pairwise
  CEs, one episode-anchored vessel pair) — hence to exactly one band,
  whose internal derivation order is preserved — so the merged list is
  byte-identical to the single-engine one.
"""

import heapq

from repro.maritime.recognizer import Alert, alert_sort_key
from repro.tracking.types import CriticalPoint, MovementEvent


def merge_tagged_events(
    tagged_per_shard: list[list[tuple[tuple[int, int], MovementEvent]]],
) -> list[MovementEvent]:
    """Splice per-shard tagged events into single-process order."""
    merged = heapq.merge(*tagged_per_shard, key=lambda item: item[0])
    return [event for _, event in merged]


def merge_critical_points(
    per_shard: list[list[CriticalPoint]],
) -> list[CriticalPoint]:
    """Merge per-shard (mmsi, timestamp)-ordered critical-point lists."""
    ordered = [
        sorted(points, key=lambda p: (p.mmsi, p.timestamp))
        for points in per_shard
    ]
    return list(
        heapq.merge(*ordered, key=lambda p: (p.mmsi, p.timestamp))
    )


def merge_finalize_events(
    per_shard: list[list[MovementEvent]],
) -> list[MovementEvent]:
    """Merge end-of-stream events under a canonical order.

    Finalize events close long-term stops; a single-process tracker emits
    them in vessel first-seen order, which no shard can reconstruct, so
    the runtime canonicalizes on ``(mmsi, timestamp)``.  Downstream
    consumers are insensitive to this: the compressor sorts per
    ``(mmsi, timestamp)`` anyway and recognition keys its working memory
    by occurrence time.
    """
    merged = [event for events in per_shard for event in events]
    merged.sort(key=lambda e: (e.mmsi, e.timestamp, e.event_type.value))
    return merged


def merge_alerts(alerts_per_band: list[list[Alert]]) -> list[Alert]:
    """Union the bands' alerts in the single-engine report order."""
    merged = [alert for alerts in alerts_per_band for alert in alerts]
    merged.sort(key=alert_sort_key)
    return merged

"""The one transcript builder and offline oracle behind every byte-parity suite.

A transcript is everything a system emits over a stream — per-slide
reports, the finalize report, the final synopsis, the latest alerts and
the archived trips — in *canonical form*: critical points go through
:func:`repro.service.protocol.point_to_dict`, which sorts the annotation
set exactly as feed lines, the MOD and the exporters do.  ``repr()`` of a
:class:`~repro.tracking.types.CriticalPoint` is not canonical: a
frozenset that crossed a worker queue by pickle may iterate in another
order when its members' hashes collide under the process's hash seed
(``PYTHONHASHSEED=19`` reproduces it), although the set is equal.
Alerts and movement events hold only scalars, so they compare as they are.
"""

from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline.config import SystemConfig
from repro.service import offline_feed_lines
from repro.service.protocol import point_to_dict


def canonical_points(points) -> list[dict]:
    """Critical points in their given order, annotation sets canonical."""
    return [point_to_dict(point) for point in points]


def canonical_report(report) -> dict:
    """Every deterministic field of a slide report (timings excluded)."""
    return {
        "query_time": report.query_time,
        "raw_positions": report.raw_positions,
        "movement_events": report.movement_events,
        "fresh_critical_points": report.fresh_critical_points,
        "expired_critical_points": report.expired_critical_points,
        "recognized": report.recognized_complex_events,
        "alerts": list(report.alerts),
        "fresh_points": canonical_points(report.fresh_points),
    }


def replay_transcript(system, stream, slide_seconds=1800, before_slide=None):
    """Drive ``system`` over ``stream`` to the end; its full transcript.

    ``before_slide(index)`` runs ahead of each slide (failure injection).
    The system is left open: the caller owns its lifecycle.
    """
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    slides = []
    for index, (query_time, batch) in enumerate(
        StreamReplayer(arrivals, slide_seconds).batches()
    ):
        if before_slide is not None:
            before_slide(index)
        slides.append(canonical_report(system.process_slide(batch, query_time)))
    final = canonical_report(system.finalize())
    database = system.database
    return {
        "slides": slides,
        "finalize": final,
        "synopsis": canonical_points(system.current_synopsis()),
        "alerts": system.alerts(),
        "archived": [
            canonical_points(database.trip_points(trip["trip_id"]))
            for trip in database.all_trips()
        ],
    }


_ORACLE_LINES: dict[tuple, tuple[str, ...]] = {}


def offline_oracle(sentences, world, specs, config=None, shards=1) -> list[str]:
    """:func:`~repro.service.offline_feed_lines`, replayed once per input.

    The live-service, recovery and gateway suites all compare against the
    offline replay of the same few sentence streams; the replay is
    deterministic, so each (sentences, fleet, config, shard count) runs
    once per session and every caller gets its own copy of the lines.
    """
    key = (
        tuple(sentences), id(world), tuple(specs),
        config or SystemConfig(), shards,
    )
    if key not in _ORACLE_LINES:
        _ORACLE_LINES[key] = tuple(
            offline_feed_lines(sentences, world, specs, config, shards)
        )
    return list(_ORACLE_LINES[key])

"""Deterministic merge of per-runtime feed lines into cluster feed lines.

Each runtime's line, as :func:`repro.service.protocol.feed_line` laid it
out, is checked and cut into its records' JSON fragments once
(:func:`parse_feed_line`); :func:`merged_feed_line` splices those
fragments into the cluster line.  The merge is only sound under the
``ce_scope = "vessel"`` deployment contract (docs/GATEWAY.md): vessels
are then disjoint across runtimes, every runtime emits its alerts and
critical points in the same canonical order a single node would, and
the cluster line for one query time is the union of the shard lines
re-sorted with the *same* keys the single node uses and laid out by the
same :func:`~repro.service.protocol.feed_line` — hence byte-identical
output.  No record is encoded twice, and a critical point is decoded
only as far as its sort key.
"""

import json
import re
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from repro.maritime.recognizer import Alert, alert_sort_key
from repro.service.protocol import feed_line
from repro.tracking.types import MovementEventType

#: Feed-line types in emission order at one query time (a ``finalize``
#: flush always follows the last ``slide`` of the same boundary).
_TYPE_ORDER = {"slide": 0, "finalize": 1}

_SORT_KEY = itemgetter(0)

#: The layout :func:`~repro.service.protocol.feed_line` writes.
_HEAD = '{"alerts":['
_POINTS = '],"critical_points":['
_INT = r"-?[0-9]+"
#: ``float.__repr__``, or the encoder's spelling of a non-finite float.
_NUMBER = r"(?:-?(?:[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?|Infinity)|NaN)"
_ANNOTATION = "(?:%s)" % "|".join(f'"{kind.value}"' for kind in MovementEventType)
_POINT = re.compile(
    r'\{"annotations":\[(?:%(a)s(?:,%(a)s)*)?\],"duration_seconds":%(i)s,'
    r'"heading_degrees":%(n)s,"lat":%(n)s,"lon":%(n)s,"mmsi":(%(i)s),'
    r'"speed_knots":%(n)s,"timestamp":(%(i)s)\}'
    % {"a": _ANNOTATION, "i": _INT, "n": _NUMBER}
)
_TAIL = re.compile(
    r'\],"movement_events":(%(i)s),"query_time":(%(i)s),"raw_positions":(%(i)s),'
    r'"recognized":(%(i)s),"type":"(%(t)s)"\}' % {"i": _INT, "t": "|".join(_TYPE_ORDER)}
)
_ALERT_KEYS = ("area", "kind", "mmsi", "mmsi2", "since", "until")
#: The value types of an alert, in :data:`_ALERT_KEYS` order.
_ALERT_TYPES = frozenset(
    (str, str, mmsi, mmsi2, int, until)
    for mmsi, mmsi2, until in product((int, type(None)), repeat=3)
)
_scan = json.JSONDecoder().scan_once


class ShardLine(NamedTuple):
    """One runtime's feed line, checked and cut into the JSON fragments
    of its records (:func:`parse_feed_line`)."""

    type: str
    query_time: int
    raw_positions: int
    movement_events: int
    recognized: int
    #: ``(alert_sort_key(alert), fragment)`` per alert, in line order.
    alerts: list
    #: ``(mmsi, timestamp, fragment)`` per critical point: the triples
    #: :func:`~repro.service.protocol.feed_line` sorts.
    points: list


def merge_order_key(line: ShardLine) -> tuple:
    """Emission order of feed lines across runtimes: by query time, with
    every ``slide`` of a boundary before any ``finalize``."""
    if line.type not in _TYPE_ORDER:
        raise ValueError(f"unmergeable feed line type: {line.type!r}")
    return (line.query_time, _TYPE_ORDER[line.type])


def merged_feed_line(lines: list[ShardLine]) -> str:
    """Fold one feed line per runtime (same type, same query time) into
    the cluster line: counters sum, and the alert and critical-point
    fragments are spliced into the single node's canonical order."""
    if not lines:
        raise ValueError("nothing to merge")
    first = lines[0]
    for line in lines[1:]:
        if line.type != first.type or line.query_time != first.query_time:
            raise ValueError(
                "cannot merge feed lines across types or query times: "
                f"{merge_order_key(first)} vs {merge_order_key(line)}"
            )
    alerts = [alert for line in lines for alert in line.alerts]
    # Stable sort: same-key alerts only ever come from one runtime (one
    # vessel lives on one shard), so their shard-local order — which is
    # the single node's order — survives.
    alerts.sort(key=_SORT_KEY)
    return feed_line(
        first.type,
        first.query_time,
        sum(line.raw_positions for line in lines),
        sum(line.movement_events for line in lines),
        sum(line.recognized for line in lines),
        [fragment for _, fragment in alerts],
        [point for line in lines for point in line.points],
    )


def parse_feed_line(line: str) -> ShardLine | None:
    """One runtime's feed line, cut into its records' fragments, or
    ``None`` if it is not a whole line as
    :func:`~repro.service.protocol.feed_line` writes it.

    Every key must be there, in that order, each value of the type the
    feed carries: a ``slide`` or ``finalize`` type, integer counters and
    query time, alerts with string ``kind`` and ``area``, an integer
    ``since`` and integer-or-null ``until``, ``mmsi`` and ``mmsi2``, and
    critical points spelled as the encoder spells them.  A line that
    fails would stop the merge or splice bad JSON into every subscriber's
    feed.
    """
    if not line.startswith(_HEAD):
        return None
    try:
        alerts, index = _cut(line, len(_HEAD), _alert)
        if not line.startswith(_POINTS, index):
            return None
        points, index = _cut(line, index + len(_POINTS), _point)
        tail = _TAIL.fullmatch(line, index)
        if tail is None:
            return None
        events, query_time, raw, recognized, kind = tail.groups()
        return ShardLine(
            kind, int(query_time), int(raw), int(events), int(recognized),
            alerts, points,
        )
    except (ValueError, StopIteration, RecursionError):
        return None


def _cut(line: str, index: int, record) -> tuple[list, int]:
    """The records of the JSON array whose items start at ``index``, each
    read by ``record(line, index) -> (entry, end)``, and the index of the
    array's closing bracket."""
    entries: list = []
    if line.startswith("]", index):
        return entries, index
    while True:
        entry, index = record(line, index)
        entries.append(entry)
        if not line.startswith(",", index):
            return entries, index
        index += 1


def _alert(line: str, index: int) -> tuple[tuple, int]:
    alert, end = _scan(line, index)
    if (
        type(alert) is not dict
        or tuple(alert) != _ALERT_KEYS
        or tuple(map(type, alert.values())) not in _ALERT_TYPES
    ):
        raise ValueError("not an alert")
    return (alert_sort_key(Alert(**alert)), line[index:end]), end


def _point(line: str, index: int) -> tuple[tuple, int]:
    point = _POINT.match(line, index)
    if point is None:
        raise ValueError("not a critical point")
    end = point.end()
    return (int(point[1]), int(point[2]), line[index:end]), end

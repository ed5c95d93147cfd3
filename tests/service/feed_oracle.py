"""The feed serializer the fragment encoder replaced, kept as its oracle.

One ``json.dumps(sort_keys=True)`` over the nested dicts of
:func:`~repro.service.protocol.alert_to_dict` and
:func:`~repro.service.protocol.point_to_dict`, with every critical point
dumped a second time for its sort key.  ``tests/service/test_feed_encoding.py``
asserts that :func:`repro.service.protocol.slide_feed_line` and the
gateway merge produce these bytes.
"""

import json

from repro.pipeline.metrics import SlideReport
from repro.service.protocol import alert_to_dict, point_to_dict


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def point_sort_key(point: dict) -> tuple:
    """Vessel, instant, then the whole serialized point: a total order."""
    return (point["mmsi"], point["timestamp"], _dumps(point))


def slide_feed_line(report: SlideReport, kind: str = "slide") -> str:
    """The feed line as the nested ``json.dumps`` spelled it."""
    return _dumps({
        "type": kind,
        "query_time": report.query_time,
        "raw_positions": report.raw_positions,
        "movement_events": report.movement_events,
        "recognized": report.recognized_complex_events,
        "alerts": [alert_to_dict(alert) for alert in report.alerts],
        "critical_points": sorted(
            (point_to_dict(point) for point in report.fresh_points),
            key=point_sort_key,
        ),
    })

"""The gateway merge the fragment splice replaced, kept as its oracle.

Each runtime's line decoded whole by ``json.loads``, and every alert and
critical point of the merged line encoded again by the single node's
encoders.  ``tests/gateway/test_merge_parity.py`` asserts that
:func:`repro.gateway.merge.merged_feed_line` over
:func:`~repro.gateway.merge.parse_feed_line` writes these bytes.
"""

from repro.maritime.recognizer import Alert, alert_sort_key
from repro.service.protocol import (
    alert_fragment,
    feed_line,
    point_fragment,
    strings_json,
)


def merged_feed_line(payloads: list[dict]) -> str:
    """The cluster line of decoded runtime lines of one type and query
    time: counters summed, alerts re-sorted, every record re-encoded."""
    first = payloads[0]
    alerts = [alert for payload in payloads for alert in payload["alerts"]]
    alerts.sort(key=lambda alert: alert_sort_key(Alert(**alert)))
    return feed_line(
        first["type"],
        first["query_time"],
        sum(p["raw_positions"] for p in payloads),
        sum(p["movement_events"] for p in payloads),
        sum(p["recognized"] for p in payloads),
        [alert_fragment(**alert) for alert in alerts],
        [
            (
                p["mmsi"],
                p["timestamp"],
                point_fragment(
                    p["mmsi"], p["lon"], p["lat"], p["timestamp"],
                    strings_json(p["annotations"]), p["speed_knots"],
                    p["heading_degrees"], p["duration_seconds"],
                ),
            )
            for payload in payloads
            for p in payload["critical_points"]
        ],
    )

"""Deterministic merge of per-runtime feed lines into cluster feed lines.

Pure functions over the parsed JSON payloads of
:func:`repro.service.protocol.slide_feed_line`.  The merge is only sound
under the ``ce_scope = "vessel"`` deployment contract (docs/GATEWAY.md):
vessels are then disjoint across runtimes, every runtime emits its
alerts and critical points in the same canonical order a single node
would, and the cluster line for one query time is the concatenation of
the shard lines re-sorted with the *same* keys the single node uses and
laid out by the same :func:`repro.service.protocol.feed_line` — hence
byte-identical output.  Each merged record is encoded once.
"""

import json

from repro.service.protocol import (
    alert_fragment,
    feed_line,
    point_fragment,
    strings_json,
)

#: Feed-line types in emission order at one query time (a ``finalize``
#: flush always follows the last ``slide`` of the same boundary).
_TYPE_ORDER = {"slide": 0, "finalize": 1}


def alert_dict_sort_key(alert: dict) -> tuple:
    """Dict-level twin of :func:`repro.maritime.recognizer.alert_sort_key`.

    Must order alert dicts exactly as the recognizer orders
    :class:`~repro.maritime.recognizer.Alert` tuples, so a stable sort of
    concatenated shard alerts reproduces the single node's list.
    """
    mmsi = alert["mmsi"]
    mmsi2 = alert["mmsi2"]
    return (
        alert["since"],
        alert["kind"],
        alert["area"],
        -1 if mmsi is None else mmsi,
        -1 if mmsi2 is None else mmsi2,
    )


def merge_order_key(payload: dict) -> tuple:
    """Emission order of feed lines across runtimes: by query time, with
    every ``slide`` of a boundary before any ``finalize``."""
    kind = payload.get("type")
    if kind not in _TYPE_ORDER:
        raise ValueError(f"unmergeable feed line type: {kind!r}")
    return (payload["query_time"], _TYPE_ORDER[kind])


def merged_feed_line(payloads: list[dict]) -> str:
    """Fold one feed line per runtime (same type, same query time) into
    the cluster line: counters sum, alerts and critical points re-sort
    into the single node's canonical order, and each record is encoded
    once by the single node's encoders."""
    if not payloads:
        raise ValueError("nothing to merge")
    first = payloads[0]
    for payload in payloads[1:]:
        if (
            payload["type"] != first["type"]
            or payload["query_time"] != first["query_time"]
        ):
            raise ValueError(
                "cannot merge feed lines across types or query times: "
                f"{merge_order_key(first)} vs {merge_order_key(payload)}"
            )
    alerts = [alert for payload in payloads for alert in payload["alerts"]]
    # Stable sort: same-key alerts only ever come from one runtime (one
    # vessel lives on one shard), so their shard-local order — which is
    # the single node's order — survives.
    alerts.sort(key=alert_dict_sort_key)
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


def parse_feed_line(line: str) -> dict | None:
    """One feed line as a payload dict, or ``None`` if not valid JSON."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None

"""Merge units: the cluster line must be the single node's line."""

import json

import pytest

from repro.gateway.merge import (
    ShardLine,
    merge_order_key,
    merged_feed_line,
    parse_feed_line,
)
from repro.maritime.recognizer import Alert
from repro.service.protocol import (
    alert_fragment,
    alert_to_dict,
    feed_line,
    point_fragment,
    strings_json,
)


def _fields(qt=60, kind="slide", alerts=(), points=(), raw=0, events=0, ces=0):
    """One feed line's fields, as ``json.loads`` gives them back."""
    return {
        "type": kind,
        "query_time": qt,
        "raw_positions": raw,
        "movement_events": events,
        "recognized": ces,
        "alerts": list(alerts),
        "critical_points": list(points),
    }


def _line(fields: dict) -> ShardLine:
    """The fields as a runtime's line reaches the merge: laid out by
    :func:`feed_line`, then parsed."""
    return parse_feed_line(feed_line(
        fields["type"],
        fields["query_time"],
        fields["raw_positions"],
        fields["movement_events"],
        fields["recognized"],
        [alert_fragment(**alert) for alert in fields["alerts"]],
        [
            (p["mmsi"], p["timestamp"], point_fragment(
                p["mmsi"], p["lon"], p["lat"], p["timestamp"],
                strings_json(p["annotations"]), p["speed_knots"],
                p["heading_degrees"], p["duration_seconds"],
            ))
            for p in fields["critical_points"]
        ],
    ))


def _payload(*args, **kwargs) -> ShardLine:
    return _line(_fields(*args, **kwargs))


def _merged(payloads):
    return json.loads(merged_feed_line(payloads))


def _point(mmsi, ts, lon=23.0):
    return {
        "mmsi": mmsi,
        "lon": lon,
        "lat": 37.0,
        "timestamp": ts,
        "annotations": [],
        "speed_knots": 5.0,
        "heading_degrees": 90.0,
        "duration_seconds": 0,
    }


class TestMergeOrderKey:
    def test_slide_sorts_before_finalize_at_same_boundary(self):
        assert merge_order_key(_payload(60, "slide")) < merge_order_key(
            _payload(60, "finalize")
        )
        assert merge_order_key(_payload(60, "finalize")) < merge_order_key(
            _payload(120, "slide")
        )

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            merge_order_key(_payload(60)._replace(type="snapshot"))


class TestMergeSlidePayloads:
    def test_counters_sum_and_collections_resort(self):
        a1 = alert_to_dict(Alert("illegalShipping", "a2", 30, 40, 111, None))
        a2 = alert_to_dict(Alert("illegalShipping", "a1", 10, 20, 222, None))
        merged = _merged([
            _payload(alerts=[a1], points=[_point(111, 55)], raw=3,
                     events=2, ces=1),
            _payload(alerts=[a2], points=[_point(222, 50)], raw=4,
                     events=1, ces=1),
        ])
        assert merged["raw_positions"] == 7
        assert merged["movement_events"] == 3
        assert merged["recognized"] == 2
        assert merged["alerts"] == [a2, a1]
        assert [p["mmsi"] for p in merged["critical_points"]] == [111, 222]

    def test_single_payload_roundtrips_byte_identically(self):
        payload = _fields(
            alerts=[alert_to_dict(Alert("illegalShipping", "a1", 1, 2,
                                        111, None))],
            points=[_point(111, 50), _point(111, 55)],
            raw=2, events=2, ces=1,
        )
        line = merged_feed_line([_line(payload)])
        assert json.loads(line) == payload
        # Compact separators, sorted keys: the single node's serializer.
        assert ": " not in line and ", " not in line

    def test_mismatched_query_times_raise(self):
        with pytest.raises(ValueError):
            merged_feed_line([_payload(60), _payload(120)])

    def test_mismatched_types_raise(self):
        with pytest.raises(ValueError):
            merged_feed_line([
                _payload(60, "slide"), _payload(60, "finalize")
            ])

    def test_empty_merge_raises(self):
        with pytest.raises(ValueError):
            merged_feed_line([])


class TestParseFeedLine:
    def test_valid_json_object(self):
        # A whole line parses into its fields; an object that is only
        # part of one is not a line.
        assert parse_feed_line(feed_line("slide", 60, 3, 2, 1, [], [])) == (
            ShardLine("slide", 60, 3, 2, 1, [], [])
        )
        assert parse_feed_line('{"type":"slide"}') is None

    def test_rejects_non_json_and_non_objects(self):
        assert parse_feed_line("not json") is None
        assert parse_feed_line("[1,2]") is None

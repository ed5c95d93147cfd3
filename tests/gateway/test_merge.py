"""Merge units: the cluster line must be the single node's line."""

import json

import pytest

from repro.gateway.merge import (
    alert_dict_sort_key,
    merge_order_key,
    merged_feed_line,
    parse_feed_line,
)
from repro.maritime.recognizer import Alert, alert_sort_key
from repro.service.protocol import alert_to_dict


def _payload(qt=60, kind="slide", alerts=(), points=(), raw=0, events=0, ces=0):
    return {
        "type": kind,
        "query_time": qt,
        "raw_positions": raw,
        "movement_events": events,
        "recognized": ces,
        "alerts": list(alerts),
        "critical_points": list(points),
    }


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


class TestAlertDictSortKey:
    def test_matches_the_recognizer_tuple_key(self):
        alerts = [
            Alert("illegalShipping", "a3", 10, 20, 111, None),
            Alert("dangerousShipping", "a1", 10, None, 222, None),
            Alert("illegalShipping", "a1", 5, 9, 333, None),
            Alert("rendezvous", "open", 5, 9, 111, 222),
        ]
        by_tuple = sorted(alerts, key=alert_sort_key)
        by_dict = sorted(
            (alert_to_dict(a) for a in alerts), key=alert_dict_sort_key
        )
        assert by_dict == [alert_to_dict(a) for a in by_tuple]


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
            merge_order_key(_payload(60, "snapshot"))


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
        payload = _payload(
            alerts=[alert_to_dict(Alert("illegalShipping", "a1", 1, 2,
                                        111, None))],
            points=[_point(111, 50), _point(111, 55)],
            raw=2, events=2, ces=1,
        )
        line = merged_feed_line([payload])
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
        assert parse_feed_line('{"type":"slide"}') == {"type": "slide"}

    def test_rejects_non_json_and_non_objects(self):
        assert parse_feed_line("not json") is None
        assert parse_feed_line("[1,2]") is None

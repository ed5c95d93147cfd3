"""Tests for AIS position-report encoding and decoding."""

import pytest
from hypothesis import given, strategies as st

from repro.ais.messages import (
    COURSE_NOT_AVAILABLE,
    POSITION_REPORT_TYPES,
    PositionReport,
    SPEED_NOT_AVAILABLE,
    decode_payload,
    encode_position_report,
)
from tests.ais.oracle import BitWriter, bits_to_payload


def make_report(message_type=1, **overrides) -> PositionReport:
    defaults = dict(
        message_type=message_type,
        mmsi=239_123_456,
        lon=23.65432,
        lat=37.94321,
        speed_knots=12.3,
        course_degrees=187.4,
        second_of_minute=42,
    )
    defaults.update(overrides)
    return PositionReport(**defaults)


class TestRoundTrip:
    @pytest.mark.parametrize("message_type", sorted(POSITION_REPORT_TYPES))
    def test_all_supported_types(self, message_type):
        report = make_report(message_type)
        payload, fill = encode_position_report(report)
        decoded = decode_payload(payload, fill)
        assert decoded is not None
        assert decoded.message_type == message_type
        assert decoded.mmsi == report.mmsi
        assert decoded.lon == pytest.approx(report.lon, abs=2e-5)
        assert decoded.lat == pytest.approx(report.lat, abs=2e-5)
        assert decoded.speed_knots == pytest.approx(report.speed_knots, abs=0.05)
        assert decoded.course_degrees == pytest.approx(
            report.course_degrees, abs=0.05
        )
        assert decoded.second_of_minute == report.second_of_minute

    @given(
        lon=st.floats(min_value=-180.0, max_value=180.0),
        lat=st.floats(min_value=-90.0, max_value=90.0),
        speed=st.floats(min_value=0.0, max_value=102.2),
        course=st.floats(min_value=0.0, max_value=359.9),
        mmsi=st.integers(min_value=0, max_value=999_999_999),
    )
    def test_type1_round_trip_property(self, lon, lat, speed, course, mmsi):
        report = make_report(1, lon=lon, lat=lat, speed_knots=speed,
                             course_degrees=course, mmsi=mmsi)
        payload, fill = encode_position_report(report)
        decoded = decode_payload(payload, fill)
        assert decoded.mmsi == mmsi
        assert decoded.lon == pytest.approx(lon, abs=2e-5)
        assert decoded.lat == pytest.approx(lat, abs=2e-5)
        assert decoded.speed_knots == pytest.approx(speed, abs=0.06)

    def test_payload_lengths(self):
        # Types 1/2/3/18: 168 bits = 28 chars; type 19: 312 bits = 52 chars.
        payload, _ = encode_position_report(make_report(1))
        assert len(payload) == 28
        payload, _ = encode_position_report(make_report(18))
        assert len(payload) == 28
        payload, _ = encode_position_report(make_report(19))
        assert len(payload) == 52


class TestValidation:
    def test_unsupported_type_encode(self):
        with pytest.raises(ValueError, match="unsupported message type"):
            encode_position_report(make_report(5))

    def test_unsupported_type_decode_returns_none(self):
        # Message type 5 (static voyage data) starts with 000101.
        writer = BitWriter()
        writer.write_uint(5, 6)
        writer.write_uint(0, 162)
        payload, fill = bits_to_payload(writer.bits())
        assert decode_payload(payload, fill) is None

    def test_truncated_payload_raises(self):
        payload, _ = encode_position_report(make_report(1))
        with pytest.raises(ValueError):
            decode_payload(payload[:10], 0)

    def test_empty_payload_raises(self):
        with pytest.raises(ValueError, match="too short"):
            decode_payload("", 0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="negative speed"):
            encode_position_report(make_report(1, speed_knots=-1.0))

    def test_speed_saturates_at_102_2(self):
        report = make_report(1, speed_knots=500.0)
        payload, fill = encode_position_report(report)
        assert decode_payload(payload, fill).speed_knots == pytest.approx(102.2)


class TestSentinels:
    def test_valid_position_flag(self):
        assert make_report(1).has_valid_position()
        assert not make_report(1, lon=181.0).has_valid_position()
        assert not make_report(1, lat=91.0).has_valid_position()

    def test_speed_not_available_constant(self):
        assert SPEED_NOT_AVAILABLE == pytest.approx(102.3)

    def test_course_not_available_constant(self):
        assert COURSE_NOT_AVAILABLE == 360.0

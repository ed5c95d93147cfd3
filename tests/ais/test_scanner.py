"""Tests for the Data Scanner: decode + clean."""

import pytest

from repro.ais.messages import PositionReport, encode_position_report
from repro.ais.nmea import nmea_checksum, wrap_aivdm
from repro.ais.scanner import DataScanner


def make_sentence(message_type=1, lon=23.6, lat=37.9, mmsi=239_000_001):
    report = PositionReport(message_type, mmsi, lon, lat, 10.0, 90.0, 0)
    payload, fill = encode_position_report(report)
    return wrap_aivdm(payload, fill)


class TestAccept:
    def test_valid_sentence_yields_tuple(self):
        scanner = DataScanner()
        result = scanner.scan(1234, make_sentence())
        assert result is not None
        assert result.mmsi == 239_000_001
        assert result.timestamp == 1234
        assert result.lon == pytest.approx(23.6, abs=1e-4)
        assert result.lat == pytest.approx(37.9, abs=1e-4)
        assert scanner.statistics.accepted == 1
        assert scanner.statistics.rejected == 0

    @pytest.mark.parametrize("message_type", [1, 2, 3, 18, 19])
    def test_all_position_types_accepted(self, message_type):
        scanner = DataScanner()
        assert scanner.scan(0, make_sentence(message_type)) is not None

    def test_scan_many_filters(self):
        scanner = DataScanner()
        good = make_sentence()
        bad = good[:-2] + "00"
        tuples = scanner.scan_many([(0, good), (1, bad), (2, good)])
        assert len(tuples) == 2
        assert scanner.statistics.total == 3


class TestReject:
    def test_bad_checksum(self):
        scanner = DataScanner()
        sentence = make_sentence()
        corrupted = sentence[:-2] + ("00" if sentence[-2:] != "00" else "11")
        assert scanner.scan(0, corrupted) is None
        assert scanner.statistics.bad_checksum == 1

    def test_bad_format(self):
        scanner = DataScanner()
        assert scanner.scan(0, "garbage") is None
        assert scanner.statistics.bad_format == 1

    @pytest.mark.parametrize("fill", ["-1", "-7", "6"])
    def test_fill_bits_outside_0_to_5_are_bad_format(self, fill):
        payload = make_sentence().split(",")[5]
        body = f"AIVDM,1,1,,A,{payload},{fill}"
        scanner = DataScanner()
        assert scanner.scan(0, f"!{body}*{nmea_checksum(body)}") is None
        assert scanner.statistics.bad_format == 1

    def test_bad_payload(self):
        scanner = DataScanner()
        # Valid framing/checksum, truncated type-1 payload.
        body = "AIVDM,1,1,,A,13u,0"
        sentence = f"!{body}*{nmea_checksum(body)}"
        assert scanner.scan(0, sentence) is None
        assert scanner.statistics.bad_payload == 1

    def test_unsupported_type(self):
        scanner = DataScanner()
        # Type 4 (base station report) begins with '4'.
        body = "AIVDM,1,1,,A,4000000000000000000000000000,0"
        sentence = f"!{body}*{nmea_checksum(body)}"
        assert scanner.scan(0, sentence) is None
        assert scanner.statistics.unsupported_type == 1

    def test_invalid_position_sentinel(self):
        scanner = DataScanner()
        # lon=181 is the AIS "not available" sentinel.
        assert scanner.scan(0, make_sentence(lon=181.0)) is None
        assert scanner.statistics.invalid_position == 1

    def test_statistics_totals(self):
        scanner = DataScanner()
        scanner.scan(0, make_sentence())
        scanner.scan(1, "junk")
        stats = scanner.statistics
        assert stats.total == 2
        assert stats.accepted == 1
        assert stats.rejected == 1

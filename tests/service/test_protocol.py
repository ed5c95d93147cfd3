"""Wire-format tests: ingest line parsing and feed serialization stability."""

import json

from hypothesis import given, settings, strategies as st

from repro.maritime.recognizer import Alert
from repro.pipeline.metrics import SlideReport
from repro.service import (
    format_ingest_line,
    parse_ingest_line,
    slide_feed_line,
)
from repro.service.protocol import (
    format_heartbeat,
    format_resume,
    format_stamped_line,
    format_watermark,
    parse_heartbeat,
    parse_ingest_lines,
    parse_resume,
    parse_stamped_line,
    parse_watermark,
)
from repro.tracking.types import CriticalPoint, MovementEventType


class TestParseIngestLine:
    def test_timestamped_tab_form(self):
        assert parse_ingest_line("123\t!AIVDM,...", 999) == (123, "!AIVDM,...")

    def test_timestamped_space_form(self):
        assert parse_ingest_line("123 !AIVDM,...", 999) == (123, "!AIVDM,...")

    def test_bare_sentence_gets_default_time(self):
        assert parse_ingest_line("!AIVDM,...", 999) == (999, "!AIVDM,...")

    def test_blank_and_comment_lines_skipped(self):
        assert parse_ingest_line("", 0) is None
        assert parse_ingest_line("   \r\n", 0) is None
        assert parse_ingest_line("# a comment", 0) is None

    def test_garbage_prefix_passes_through_for_scanner_to_reject(self):
        # A non-integer first field is not a timestamp; the whole line
        # goes to the scanner (which counts it as bad_format).
        time, sentence = parse_ingest_line("junk line", 7)
        assert time == 7
        assert sentence == "junk line"

    def test_round_trip_with_format(self):
        line = format_ingest_line(456, "!AIVDM,1,1,,A,x,0*00")
        assert parse_ingest_line(line, 0) == (456, "!AIVDM,1,1,,A,x,0*00")


#: Gateway / runtime names as they appear inside control lines.
sources = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.:", min_size=1, max_size=20
)
#: Sentences as an ingest line carries them: no surrounding whitespace,
#: no tab or newline inside.
sentences = st.text(
    alphabet=st.characters(exclude_categories=("Cc", "Zs", "Zl", "Zp", "Cs")),
    min_size=1,
    max_size=80,
)
FUZZ = settings(max_examples=300, deadline=None)


class TestControlLineFuzz:
    """Control lines arrive from sockets: the parsers never raise on any
    text, and each reads back exactly what its ``format_*`` twin wrote."""

    @FUZZ
    @given(line=st.text(max_size=120), default_time=st.integers())
    def test_parsers_never_raise(self, line, default_time):
        parsed = parse_ingest_line(line, default_time)
        assert parsed is None or isinstance(parsed[1], str)
        assert parse_watermark(line) is None or parse_watermark(line)[0]
        assert parse_heartbeat(line) is None or parse_heartbeat(line)[0]
        assert parse_resume(line) is None or parse_resume(line) >= 0
        assert parse_stamped_line(line) is None or parse_stamped_line(line)[0] > 0

    @FUZZ
    @given(receive_time=st.integers(), sentence=sentences)
    def test_ingest_line_round_trip(self, receive_time, sentence):
        line = format_ingest_line(receive_time, sentence)
        assert parse_ingest_line(line, 0) == (receive_time, sentence)

    @FUZZ
    @given(receive_time=st.integers(), source=sources, final=st.booleans())
    def test_watermark_round_trip(self, receive_time, source, final):
        line = format_watermark(receive_time, source, final)
        stamped, sentence = parse_ingest_line(line, 0)
        assert stamped == receive_time
        assert parse_watermark(sentence) == (source, final)

    @FUZZ
    @given(source=sources, seq=st.integers())
    def test_heartbeat_round_trip(self, source, seq):
        _, sentence = parse_ingest_line(format_heartbeat(source, seq), 0)
        assert parse_heartbeat(sentence) == (source, seq)

    @FUZZ
    @given(last_seq=st.integers(min_value=0))
    def test_resume_round_trip(self, last_seq):
        assert parse_resume(format_resume(last_seq)) == last_seq

    @FUZZ
    @given(seq=st.integers(min_value=1), payload=st.text(max_size=80))
    def test_stamped_line_round_trip(self, seq, payload):
        assert parse_stamped_line(format_stamped_line(seq, payload)) == (seq, payload)


class TestSlideFeedLine:
    def report(self):
        point = CriticalPoint(
            mmsi=1,
            lon=24.5,
            lat=37.5,
            timestamp=1700,
            annotations=frozenset({MovementEventType.TURN}),
            speed_mps=5.0,
            heading_degrees=90.0,
        )
        return SlideReport(
            query_time=1800,
            raw_positions=10,
            movement_events=3,
            fresh_critical_points=1,
            expired_critical_points=0,
            recognized_complex_events=1,
            alerts=(Alert("suspicious", "area_1", 60, None, 1),),
            timings={"tracking": 0.001},
            fresh_points=(point,),
        )

    def test_line_is_single_line_json(self):
        line = slide_feed_line(self.report())
        assert "\n" not in line
        payload = json.loads(line)
        assert payload["type"] == "slide"
        assert payload["query_time"] == 1800
        assert payload["alerts"][0]["kind"] == "suspicious"
        assert payload["critical_points"][0]["annotations"] == ["turn"]

    def test_serialization_is_deterministic(self):
        assert slide_feed_line(self.report()) == slide_feed_line(self.report())

    def test_finalize_kind(self):
        payload = json.loads(slide_feed_line(self.report(), "finalize"))
        assert payload["type"] == "finalize"


def test_parse_ingest_lines_drops_blank_and_comment_lines_in_order():
    lines = ["100\t!A", "", "# comment", "!B", "0102 !C\r", "   ", "\u0661\u0662\t!D"]
    assert parse_ingest_lines(lines, 7) == [(100, "!A"), (7, "!B"), (102, "!C"), (12, "!D")]

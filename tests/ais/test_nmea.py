"""Tests for NMEA AIVDM framing and checksums."""

import pytest
from hypothesis import assume, given, strategies as st

from repro.ais.nmea import (
    AivdmSentence,
    ChecksumError,
    NmeaFormatError,
    frame_aivdm,
    nmea_checksum,
    unwrap_aivdm,
    wrap_aivdm,
)

payload_chars = st.text(
    alphabet=[chr(c) for c in range(48, 88)] + [chr(c) for c in range(96, 120)],
    min_size=1,
    max_size=60,
)


def _per_character_checksum(body: str) -> str:
    """The checksum as a per-character loop: the reference for the fold."""
    value = 0
    for char in body:
        value ^= ord(char)
    return f"{value:02X}"


class TestChecksum:
    def test_known_checksum(self):
        # XOR of the characters of "AIVDM" = 0x41^0x49^0x56^0x44^0x4D.
        expected = 0x41 ^ 0x49 ^ 0x56 ^ 0x44 ^ 0x4D
        assert nmea_checksum("AIVDM") == f"{expected:02X}"

    def test_empty_body(self):
        assert nmea_checksum("") == "00"

    @pytest.mark.parametrize("body", ["é", "AIVDM,ü", "海事", "海海", "\x00\xff"])
    def test_non_ascii_bodies_fold_their_code_points(self, body):
        assert nmea_checksum(body) == _per_character_checksum(body)

    @given(body=st.text(max_size=120))
    def test_fold_matches_the_per_character_loop(self, body):
        assert nmea_checksum(body) == _per_character_checksum(body)


class TestWrapUnwrap:
    def test_round_trip(self):
        sentence = wrap_aivdm("13u?etPv2;0n:dDPwUM1U1Cb069D", 0)
        parsed = unwrap_aivdm(sentence)
        assert parsed.payload == "13u?etPv2;0n:dDPwUM1U1Cb069D"
        assert parsed.fill_bits == 0
        assert parsed.channel == "A"

    def test_channel_preserved(self):
        parsed = unwrap_aivdm(wrap_aivdm("0000", 2, channel="B"))
        assert parsed.channel == "B"
        assert parsed.fill_bits == 2

    @given(payload=payload_chars, fill=st.integers(min_value=0, max_value=5))
    def test_round_trip_property(self, payload, fill):
        parsed = unwrap_aivdm(wrap_aivdm(payload, fill))
        assert parsed.payload == payload
        assert parsed.fill_bits == fill

    def test_whitespace_tolerated(self):
        sentence = wrap_aivdm("0000", 0)
        assert unwrap_aivdm(f"  {sentence}\r\n").payload == "0000"


class TestRejection:
    def test_corrupted_payload_fails_checksum(self):
        sentence = wrap_aivdm("13u?etPv2;0n:dDPwUM1U1Cb069D", 0)
        corrupted = sentence.replace("etPv", "etPw", 1)
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            unwrap_aivdm(corrupted)

    def test_wrong_declared_checksum(self):
        sentence = wrap_aivdm("0000", 0)
        body, _, _ = sentence.rpartition("*")
        with pytest.raises(ChecksumError):
            unwrap_aivdm(body + "*FF")

    def test_missing_bang(self):
        with pytest.raises(NmeaFormatError, match="start with"):
            unwrap_aivdm("AIVDM,1,1,,A,0000,0*00")

    def test_missing_checksum_suffix(self):
        with pytest.raises(NmeaFormatError, match="checksum suffix"):
            unwrap_aivdm("!AIVDM,1,1,,A,0000,0")

    def test_wrong_talker(self):
        body = "GPGGA,1,1,,A,0000,0"
        with pytest.raises(NmeaFormatError, match="not an AIVDM"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_wrong_field_count(self):
        body = "AIVDM,1,1,,A,0000"
        with pytest.raises(NmeaFormatError):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_multi_fragment_parses_framing(self):
        body = "AIVDM,2,1,5,A,0000,0"
        parsed = unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")
        assert parsed.is_fragmented
        assert parsed.fragment_count == 2
        assert parsed.fragment_number == 1
        assert parsed.message_id == "5"

    def test_inconsistent_fragment_framing_rejected(self):
        body = "AIVDM,2,3,5,A,0000,0"
        with pytest.raises(NmeaFormatError, match="inconsistent fragment"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_non_numeric_framing(self):
        body = "AIVDM,x,1,,A,0000,0"
        with pytest.raises(NmeaFormatError, match="non-numeric"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_empty_payload(self):
        body = "AIVDM,1,1,,A,,0"
        with pytest.raises(NmeaFormatError, match="empty payload"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    @pytest.mark.parametrize("fill", ["-1", "-7", "6", "63"])
    def test_fill_bits_outside_0_to_5_rejected(self, fill):
        body = f"AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,{fill}"
        with pytest.raises(NmeaFormatError, match="fill bits"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_bad_checksum_wins_over_bad_framing(self):
        # The scanner counts such a sentence as a checksum error.
        with pytest.raises(ChecksumError):
            unwrap_aivdm("!AIVDM,x,1,,A,0000,0*00")


#: Sentence bodies: arbitrary text, and AIVDM field lists around the edges
#: of the framing rules (counts, numbers, fill bits, empty payloads).
bodies = st.text(max_size=80) | st.lists(
    st.text(alphabet="0125AB,-x ", max_size=4), min_size=6, max_size=6
).map(lambda fields: ",".join(["AIVDM", *fields]))


class TestFraming:
    @given(body=bodies, declared=st.text(alphabet="0123456789ABCDEFab", min_size=2, max_size=2))
    def test_framing_is_unwrap_without_the_checksum(self, body, declared):
        """``frame_aivdm`` of any ``!body*hh`` parses what ``unwrap_aivdm``
        parses from the same body under its correct checksum, and fails
        exactly where that fails."""
        def outcome(function, sentence):
            try:
                return function(sentence)
            except NmeaFormatError:
                return NmeaFormatError

        correct = nmea_checksum(body)
        # Past two digits (a code point above 255) no sentence carries it.
        assume(len(correct) == 2)
        assert outcome(frame_aivdm, f"!{body}*{declared}") == outcome(
            unwrap_aivdm, f"!{body}*{correct}"
        )

    def test_framing_ignores_the_checksum(self):
        sentence = wrap_aivdm("13u?etPv2;0n:dDPwUM1U1Cb069D", 0)
        corrupted = sentence[:-2] + ("00" if sentence[-2:] != "00" else "01")
        with pytest.raises(ChecksumError):
            unwrap_aivdm(corrupted)
        assert frame_aivdm(corrupted) == unwrap_aivdm(sentence)

    def test_sentence_is_a_cheap_value(self):
        parsed = unwrap_aivdm(wrap_aivdm("0000", 2, channel="B"))
        assert parsed == AivdmSentence("0000", 2, "B")
        assert not parsed.is_fragmented
        assert parsed.group_key == ("B", "", 1)

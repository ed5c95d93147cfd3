"""The references the shipped AIS code must match.

* **The bit-list codec** ``repro.ais`` shipped before payloads became one
  integer walked through per-class field tables: ``BitWriter``/``BitReader``
  over a ``list[int]`` of bits, one hand-written encode and decode per
  message class, and the gateway router's bit loop over bits 8–38.  It is
  kept, unchanged, so ``tests/ais/test_codec_oracle.py`` can require
  identical outcomes from both codecs on generated inputs.
* **The per-sentence Data Scanner** (:class:`OracleScanner`) the live path
  called once per sentence before ``DataScanner.scan_many`` became the
  one batch path: frame and checksum with ``unwrap_aivdm``, reassemble,
  decode with the bit-list codec.  ``tests/ais/test_scanner_oracle.py``
  requires the same tuples, statistics and rejection causes from the
  batch scanner however a stream is cut into batches.
"""

from repro.ais.messages import (
    COURSE_NOT_AVAILABLE,
    POSITION_REPORT_TYPES,
    SPEED_NOT_AVAILABLE,
    PositionReport,
)
from repro.ais.nmea import ChecksumError, NmeaFormatError, unwrap_aivdm
from repro.ais.scanner import FragmentAssembler, ScannerStatistics
from repro.ais.stream import PositionalTuple

_LON_SCALE = 600_000  # 1/10000 arc-minute
_LAT_SCALE = 600_000


class BitWriter:
    """Append-only big-endian bit buffer for composing AIS payloads."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def __len__(self) -> int:
        return len(self._bits)

    def write_uint(self, value: int, width: int) -> None:
        """Append an unsigned integer using ``width`` bits (big-endian)."""
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} unsigned bits")
        for shift in range(width - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def write_int(self, value: int, width: int) -> None:
        """Append a signed integer (two's complement) using ``width`` bits."""
        bound = 1 << (width - 1)
        if value < -bound or value >= bound:
            raise ValueError(f"value {value} does not fit in {width} signed bits")
        self.write_uint(value & ((1 << width) - 1), width)

    def bits(self) -> list[int]:
        """The accumulated bits as a list of 0/1 integers."""
        return list(self._bits)


class BitReader:
    """Sequential reader over a bit vector produced by :class:`BitWriter`."""

    def __init__(self, bits: list[int]):
        self._bits = bits
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return len(self._bits) - self._pos

    def read_uint(self, width: int) -> int:
        """Read an unsigned integer of ``width`` bits."""
        if width > self.remaining:
            raise ValueError(
                f"cannot read {width} bits, only {self.remaining} remaining"
            )
        value = 0
        for _ in range(width):
            value = (value << 1) | self._bits[self._pos]
            self._pos += 1
        return value

    def read_int(self, width: int) -> int:
        """Read a signed (two's complement) integer of ``width`` bits."""
        value = self.read_uint(width)
        if value >= (1 << (width - 1)):
            value -= 1 << width
        return value

    def skip(self, width: int) -> None:
        """Discard ``width`` bits."""
        self.read_uint(width)


def bits_to_payload(bits: list[int]) -> tuple[str, int]:
    """Armor a bit vector into a 6-bit ASCII payload string.

    Returns ``(payload, fill_bits)`` where ``fill_bits`` is the number of
    padding zero bits appended to reach a multiple of six (reported in the
    AIVDM sentence so the decoder can strip them).
    """
    fill = (-len(bits)) % 6
    padded = bits + [0] * fill
    chars = []
    for i in range(0, len(padded), 6):
        value = 0
        for bit in padded[i : i + 6]:
            value = (value << 1) | bit
        chars.append(_value_to_char(value))
    return "".join(chars), fill


def payload_to_bits(payload: str, fill_bits: int = 0) -> list[int]:
    """Strip the 6-bit ASCII armor back into a bit vector."""
    bits: list[int] = []
    for char in payload:
        value = _char_to_value(char)
        for shift in range(5, -1, -1):
            bits.append((value >> shift) & 1)
    if fill_bits:
        if fill_bits > len(bits):
            raise ValueError("fill_bits exceeds payload length")
        bits = bits[: len(bits) - fill_bits]
    return bits


def _value_to_char(value: int) -> str:
    if not 0 <= value <= 63:
        raise ValueError(f"6-bit value out of range: {value}")
    if value < 40:
        return chr(value + 48)
    return chr(value + 56)


def _char_to_value(char: str) -> int:
    code = ord(char)
    if 48 <= code <= 87:
        return code - 48
    if 96 <= code <= 119:
        return code - 56
    raise ValueError(f"invalid 6-bit ASCII character: {char!r}")


def encode_position_report(report: PositionReport) -> tuple[str, int]:
    """Encode a position report into an armored payload.

    Returns ``(payload, fill_bits)`` ready for AIVDM framing.
    """
    if report.message_type not in POSITION_REPORT_TYPES:
        raise ValueError(f"unsupported message type: {report.message_type}")
    if report.message_type in (1, 2, 3):
        bits = _encode_class_a(report)
    elif report.message_type == 18:
        bits = _encode_class_b(report, extended=False)
    else:
        bits = _encode_class_b(report, extended=True)
    return bits_to_payload(bits)


def decode_payload(payload: str, fill_bits: int = 0) -> PositionReport | None:
    """Decode an armored payload into a :class:`PositionReport`.

    Returns ``None`` for message types the system does not consume (the Data
    Scanner ignores them) and raises ``ValueError`` on malformed payloads of
    a supported type.
    """
    bits = payload_to_bits(payload, fill_bits)
    if len(bits) < 6:
        raise ValueError("payload too short to carry a message type")
    reader = BitReader(bits)
    message_type = reader.read_uint(6)
    if message_type not in POSITION_REPORT_TYPES:
        return None
    if message_type in (1, 2, 3):
        return _decode_class_a(message_type, reader)
    if message_type == 18:
        return _decode_class_b(message_type, reader, extended=False)
    return _decode_class_b(message_type, reader, extended=True)


def _encode_common_header(writer: BitWriter, report: PositionReport) -> None:
    writer.write_uint(report.message_type, 6)
    writer.write_uint(0, 2)  # repeat indicator
    writer.write_uint(report.mmsi, 30)


def _encode_class_a(report: PositionReport) -> list[int]:
    """Types 1/2/3: 168-bit Class A position report."""
    writer = BitWriter()
    _encode_common_header(writer, report)
    writer.write_uint(15, 4)  # navigation status: not defined
    writer.write_int(-128, 8)  # rate of turn: not available
    writer.write_uint(_encode_speed(report.speed_knots), 10)
    writer.write_uint(0, 1)  # position accuracy
    writer.write_int(round(report.lon * _LON_SCALE), 28)
    writer.write_int(round(report.lat * _LAT_SCALE), 27)
    writer.write_uint(_encode_course(report.course_degrees), 12)
    writer.write_uint(511, 9)  # true heading: not available
    writer.write_uint(report.second_of_minute % 64, 6)
    writer.write_uint(0, 2)  # maneuver indicator
    writer.write_uint(0, 3)  # spare
    writer.write_uint(0, 1)  # RAIM
    writer.write_uint(0, 19)  # radio status
    return writer.bits()


def _decode_class_a(message_type: int, reader: BitReader) -> PositionReport:
    reader.skip(2)  # repeat indicator
    mmsi = reader.read_uint(30)
    reader.skip(4)  # navigation status
    reader.skip(8)  # rate of turn
    speed = _decode_speed(reader.read_uint(10))
    reader.skip(1)  # position accuracy
    lon = reader.read_int(28) / _LON_SCALE
    lat = reader.read_int(27) / _LAT_SCALE
    course = _decode_course(reader.read_uint(12))
    reader.skip(9)  # true heading
    second = reader.read_uint(6)
    # Remaining: maneuver (2) + spare (3) + RAIM (1) + radio (19); tolerate
    # truncation there since none of it is consumed downstream.
    return PositionReport(message_type, mmsi, lon, lat, speed, course, second)


def _encode_class_b(report: PositionReport, extended: bool) -> list[int]:
    """Type 18 (168-bit) or type 19 (312-bit) Class B position report."""
    writer = BitWriter()
    _encode_common_header(writer, report)
    writer.write_uint(0, 8)  # regional reserved
    writer.write_uint(_encode_speed(report.speed_knots), 10)
    writer.write_uint(0, 1)  # position accuracy
    writer.write_int(round(report.lon * _LON_SCALE), 28)
    writer.write_int(round(report.lat * _LAT_SCALE), 27)
    writer.write_uint(_encode_course(report.course_degrees), 12)
    writer.write_uint(511, 9)  # true heading: not available
    writer.write_uint(report.second_of_minute % 64, 6)
    if not extended:
        writer.write_uint(0, 2)  # regional reserved
        writer.write_uint(1, 1)  # CS unit: carrier-sense Class B
        writer.write_uint(0, 1)  # display flag
        writer.write_uint(0, 1)  # DSC flag
        writer.write_uint(0, 1)  # band flag
        writer.write_uint(0, 1)  # message-22 flag
        writer.write_uint(0, 1)  # assigned-mode flag
        writer.write_uint(0, 1)  # RAIM
        writer.write_uint(0, 20)  # radio status
    else:
        writer.write_uint(0, 4)  # regional reserved
        for _ in range(20):
            writer.write_uint(0, 6)  # ship name: 20 chars of '@'
        writer.write_uint(0, 8)  # ship type: not available
        writer.write_uint(0, 9)  # dimension to bow
        writer.write_uint(0, 9)  # dimension to stern
        writer.write_uint(0, 6)  # dimension to port
        writer.write_uint(0, 6)  # dimension to starboard
        writer.write_uint(0, 4)  # EPFD type
        writer.write_uint(0, 1)  # RAIM
        writer.write_uint(0, 1)  # data-terminal-equipment flag
        writer.write_uint(0, 1)  # assigned-mode flag
        writer.write_uint(0, 4)  # spare
    return writer.bits()


def _decode_class_b(
    message_type: int, reader: BitReader, extended: bool
) -> PositionReport:
    reader.skip(2)  # repeat indicator
    mmsi = reader.read_uint(30)
    reader.skip(8)  # regional reserved
    speed = _decode_speed(reader.read_uint(10))
    reader.skip(1)  # position accuracy
    lon = reader.read_int(28) / _LON_SCALE
    lat = reader.read_int(27) / _LAT_SCALE
    course = _decode_course(reader.read_uint(12))
    reader.skip(9)  # true heading
    second = reader.read_uint(6)
    del extended  # trailing fields are not consumed downstream
    return PositionReport(message_type, mmsi, lon, lat, speed, course, second)


def _encode_speed(speed_knots: float) -> int:
    if speed_knots < 0:
        raise ValueError(f"negative speed: {speed_knots}")
    # 1023 = not available, 1022 = 102.2 knots or higher.
    return min(1022, round(speed_knots * 10))


def _decode_speed(raw: int) -> float:
    if raw == 1023:
        return SPEED_NOT_AVAILABLE
    return raw / 10.0


def _encode_course(course_degrees: float) -> int:
    # 3600 = not available.
    return round((course_degrees % 360.0) * 10) % 3600


def _decode_course(raw: int) -> float:
    if raw >= 3600:
        return COURSE_NOT_AVAILABLE
    return raw / 10.0


def mmsi_of_payload(payload: str, fill_bits: int) -> int | None:
    """MMSI from bits 8–38 of an AIS payload, or ``None`` if truncated."""
    try:
        bits = payload_to_bits(payload, fill_bits)
    except ValueError:
        return None
    if len(bits) < 38:
        return None
    value = 0
    for bit in bits[8:38]:
        value = (value << 1) | bit
    return value


class OracleScanner:
    """The Data Scanner one sentence at a time, with the bit-list decoder."""

    def __init__(self, max_pending_fragments: int = 64) -> None:
        self.statistics = ScannerStatistics()
        #: Why the latest :meth:`scan` discarded its sentence, or ``None``.
        self.last_rejection: str | None = None
        self._assembler = FragmentAssembler(max_pending_fragments)

    def scan(self, receive_time: int, sentence: str) -> PositionalTuple | None:
        stats = self.statistics
        self.last_rejection = None
        try:
            parsed = unwrap_aivdm(sentence)
        except ChecksumError:
            return self._reject("bad_checksum")
        except NmeaFormatError:
            return self._reject("bad_format")
        if parsed.is_fragmented:
            before = self._assembler.dropped_sentences
            parsed = self._assembler.add(parsed)
            stats.fragmented_dropped += self._assembler.dropped_sentences - before
            if parsed is None:
                return None
            stats.reassembled += 1
        try:
            report = decode_payload(parsed.payload, parsed.fill_bits)
        except ValueError:
            return self._reject("bad_payload")
        if report is None:
            return self._reject("unsupported_type")
        if not report.has_valid_position():
            return self._reject("invalid_position")
        stats.accepted += 1
        return PositionalTuple(report.mmsi, report.lon, report.lat, receive_time)

    def _reject(self, cause: str) -> None:
        stats = self.statistics
        setattr(stats, cause, getattr(stats, cause) + 1)
        self.last_rejection = cause

    def flush(self) -> int:
        dropped = self._assembler.flush()
        self.statistics.fragmented_dropped += dropped
        return dropped

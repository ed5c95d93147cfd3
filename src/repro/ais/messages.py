"""Binary layout of the AIS message types consumed by the system.

The paper considers AIS messages of types 1, 2, 3 (Class A position reports),
18 and 19 (Class B position reports) — Section 2.  This module encodes and
decodes those layouts per ITU-R M.1371: positions in 1/10000 arc-minute,
speed over ground in 1/10 knot, course over ground in 1/10 degree.

Each layout is declared once, as a table of :class:`Field` rows in wire
order, over one integer per payload (:mod:`repro.ais.sixbit`).  Encode
walks the tables; at import each is also compiled into extraction rows
(end bit, mask, sign bit, converter) in :class:`PositionReport` order,
which decode, the Data Scanner's batch read :func:`decode_fixes` and the
router's MMSI read walk without re-deriving offsets per payload.  Only the fields
the surveillance system uses (MMSI, longitude, latitude, plus speed/course
metadata useful for validation) are surfaced; the rest are constants,
written on encode and skipped on decode, keeping the wire format faithful
so that corrupt-message tests exercise realistic payloads.
"""

from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

from repro.ais.sixbit import armor, unarmor, unarmor_many

#: Sentinel "not available" values from the AIS specification.
LON_NOT_AVAILABLE = 181.0
LAT_NOT_AVAILABLE = 91.0
SPEED_NOT_AVAILABLE = 102.3
COURSE_NOT_AVAILABLE = 360.0

_LON_SCALE = 600_000  # 1/10000 arc-minute
_LAT_SCALE = 600_000


@dataclass(frozen=True)
class PositionReport:
    """Decoded AIS position report (any of types 1, 2, 3, 18, 19)."""

    message_type: int
    mmsi: int
    lon: float
    lat: float
    speed_knots: float
    course_degrees: float
    second_of_minute: int

    def has_valid_position(self) -> bool:
        """Whether lon/lat carry an actual fix (not the sentinel values)."""
        return valid_fix(self.lon, self.lat)


def valid_fix(lon: float, lat: float) -> bool:
    """Whether ``(lon, lat)`` is an actual fix, not a "not available"
    sentinel (181°, 91°) or another out-of-range value."""
    return -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0


class Field(NamedTuple):
    """One row of a layout: a :class:`PositionReport` attribute, or a
    constant when ``constant`` is set (``name`` then only documents it)."""

    name: str
    width: int
    signed: bool = False
    constant: int | None = None


_HEADER = (
    Field("message_type", 6),
    Field("repeat indicator", 2, constant=0),
    Field("mmsi", 30),
)
#: Armored characters that hold the header.
_HEADER_CHARS = -(-sum(field.width for field in _HEADER) // 6)
_MOTION = (
    Field("speed_knots", 10),
    Field("position accuracy", 1, constant=0),
    Field("lon", 28, signed=True),
    Field("lat", 27, signed=True),
    Field("course_degrees", 12),
    Field("true heading: not available", 9, constant=511),
    Field("second_of_minute", 6),
)
_CLASS_A = _HEADER + (
    Field("navigation status: not defined", 4, constant=15),
    Field("rate of turn: not available", 8, signed=True, constant=-128),
) + _MOTION + (
    Field("maneuver indicator", 2, constant=0),
    Field("spare", 3, constant=0),
    Field("RAIM", 1, constant=0),
    Field("radio status", 19, constant=0),
)
_CLASS_B = _HEADER + (Field("regional reserved", 8, constant=0),) + _MOTION
_CLASS_B_STANDARD = _CLASS_B + (
    Field("regional reserved", 2, constant=0),
    Field("CS unit: carrier-sense Class B", 1, constant=1),
    Field("display, DSC, band, message-22, assigned flags", 5, constant=0),
    Field("RAIM", 1, constant=0),
    Field("radio status", 20, constant=0),
)
_CLASS_B_EXTENDED = _CLASS_B + (
    Field("regional reserved", 4, constant=0),
    Field("ship name: 20 chars of '@'", 120, constant=0),
    Field("ship type: not available", 8, constant=0),
    Field("dimensions to bow, stern, port, starboard", 30, constant=0),
    Field("EPFD type", 4, constant=0),
    Field("RAIM, DTE and assigned-mode flags", 3, constant=0),
    Field("spare", 4, constant=0),
)

#: Wire layout of each message type the Data Scanner accepts: types
#: 1/2/3 are 168-bit Class A reports, 18 the 168-bit and 19 the 312-bit
#: Class B reports.
_LAYOUTS = {1: _CLASS_A, 2: _CLASS_A, 3: _CLASS_A, 18: _CLASS_B_STANDARD, 19: _CLASS_B_EXTENDED}
POSITION_REPORT_TYPES = frozenset(_LAYOUTS)


def _encode_speed(speed_knots: float) -> int:
    if speed_knots < 0:
        raise ValueError(f"negative speed: {speed_knots}")
    # 1023 = not available, 1022 = 102.2 knots or higher.
    return min(1022, round(speed_knots * 10))


#: Report value → wire integer, where they differ.
_TO_WIRE = {
    "speed_knots": _encode_speed,
    "lon": lambda lon: round(lon * _LON_SCALE),
    "lat": lambda lat: round(lat * _LAT_SCALE),
    # 3600 = not available.
    "course_degrees": lambda course: round((course % 360.0) * 10) % 3600,
    "second_of_minute": lambda second: second % 64,
}
#: Wire integer → report value, where they differ.
_FROM_WIRE = {
    "speed_knots": lambda raw: SPEED_NOT_AVAILABLE if raw == 1023 else raw / 10.0,
    "lon": lambda raw: raw / _LON_SCALE,
    "lat": lambda raw: raw / _LAT_SCALE,
    "course_degrees": lambda raw: COURSE_NOT_AVAILABLE if raw >= 3600 else raw / 10.0,
}


def encode_position_report(report: PositionReport) -> tuple[str, int]:
    """Encode a position report into an armored payload.

    Returns ``(payload, fill_bits)`` ready for AIVDM framing.
    """
    layout = _LAYOUTS.get(report.message_type)
    if layout is None:
        raise ValueError(f"unsupported message type: {report.message_type}")
    value = bits = 0
    for name, width, signed, constant in layout:
        raw = constant
        if raw is None:
            raw = getattr(report, name)
            if name in _TO_WIRE:
                raw = _TO_WIRE[name](raw)
        low = -(1 << (width - 1)) if signed else 0
        if not low <= raw < low + (1 << width):
            raise ValueError(f"{name} {raw} does not fit in {width} bits")
        value = value << width | raw & ((1 << width) - 1)
        bits += width
    return armor(value, bits)


class _Row(NamedTuple):
    """A compiled :class:`Field`: where its bits end, and how to read them."""

    name: str
    end: int
    mask: int
    #: The field's sign bit, or 0 when it is unsigned.
    sign: int
    convert: Callable[[int], float] | None


class _Compiled(NamedTuple):
    """One layout's non-constant fields as rows in :class:`PositionReport`
    order, and the bits a payload needs for all of them."""

    rows: tuple[_Row, ...]
    bits: int


def _compile(layout: tuple[Field, ...], names: tuple[str, ...]) -> _Compiled:
    rows = {}
    end = 0
    for name, width, signed, constant in layout:
        end += width
        if constant is None:
            sign = 1 << (width - 1) if signed else 0
            rows[name] = _Row(name, end, (1 << width) - 1, sign, _FROM_WIRE.get(name))
    ordered = tuple(rows[name] for name in names)
    return _Compiled(ordered, max(row.end for row in ordered))


_REPORT_FIELDS = tuple(field.name for field in fields(PositionReport))
_COMPILED = {
    message_type: _compile(layout, _REPORT_FIELDS)
    for message_type, layout in _LAYOUTS.items()
}
_TYPE_ROW, _MMSI_ROW = _compile(_HEADER, ("message_type", "mmsi")).rows


class _FixLayout(NamedTuple):
    """One layout's MMSI, lon and lat rows, flattened for
    :func:`decode_fixes`: the MMSI is unsigned and read as is, lon and
    lat are signed and converted.  ``bits`` stays what the payload needs
    for every field up to second-of-minute."""

    bits: int
    mmsi_end: int
    mmsi_mask: int
    lon_end: int
    lon_mask: int
    lon_sign: int
    to_lon: Callable[[int], float]
    lat_end: int
    lat_mask: int
    lat_sign: int
    to_lat: Callable[[int], float]


def _fix_layout(compiled: _Compiled) -> _FixLayout:
    mmsi, lon, lat = (
        compiled.rows[_REPORT_FIELDS.index(name)] for name in ("mmsi", "lon", "lat")
    )
    assert lon.convert is not None and lat.convert is not None
    return _FixLayout(
        compiled.bits, mmsi.end, mmsi.mask,
        lon.end, lon.mask, lon.sign, lon.convert,
        lat.end, lat.mask, lat.sign, lat.convert,
    )


_FIXES = {message_type: _fix_layout(compiled) for message_type, compiled in _COMPILED.items()}


def _read(row: _Row, value: int, bits: int):
    """The field ``row`` describes, read from the ``bits``-bit ``value``."""
    _, end, mask, sign, convert = row
    raw = value >> (bits - end) & mask
    if raw & sign:
        raw -= sign << 1
    return raw if convert is None else convert(raw)


def _rows(value: int, bits: int) -> tuple[_Row, ...] | None:
    """The rows of the payload's message type; ``None`` when unsupported.

    The type is checked before the length, and every field up to
    second-of-minute must be present.
    """
    if bits < _TYPE_ROW.end:
        raise ValueError(f"payload too short: {bits} bits, no message type")
    compiled = _COMPILED.get(_read(_TYPE_ROW, value, bits))
    if compiled is None:
        return None
    if bits < compiled.bits:
        raise ValueError(f"payload too short: {bits} bits, needs {compiled.bits}")
    return compiled.rows


def decode_payload(payload: str, fill_bits: int = 0) -> PositionReport | None:
    """Decode an armored payload into a :class:`PositionReport`.

    Returns ``None`` for message types the system does not consume (the Data
    Scanner ignores them) and raises ``ValueError`` on malformed payloads of
    a supported type.  Fields after second-of-minute may be truncated:
    none of them is consumed downstream.
    """
    value, bits = unarmor(payload, fill_bits)
    rows = _rows(value, bits)
    if rows is None:
        return None
    return PositionReport(*[_read(row, value, bits) for row in rows])


def decode_fix(payload: str, fill_bits: int = 0) -> tuple[int, float, float] | None:
    """``(mmsi, lon, lat)`` of an armored payload — the Data Scanner's
    three fields, with every check of :func:`decode_payload` and without
    building the report."""
    fix = decode_fixes([(payload, fill_bits)])[0]
    if isinstance(fix, ValueError):
        raise fix
    return fix


def decode_fixes(
    payloads: list[tuple[str, int]],
) -> list[tuple[int, float, float] | ValueError | None]:
    """:func:`decode_fix` of each ``(payload, fill_bits)``: its ``(mmsi,
    lon, lat)``, ``None``, or the ``ValueError`` it would raise (returned,
    not raised) — the Data Scanner's batch read.

    The payloads are unarmored together (:func:`~repro.ais.sixbit.unarmor_many`)
    and the three fields are read through their compiled rows.  A batch
    holding a payload that cannot be unarmored is decoded one payload at
    a time.
    """
    values = unarmor_many(payloads)
    if values is None:
        if len(payloads) == 1:
            payload, fill_bits = payloads[0]
            return [ValueError(f"invalid armor or fill bits {fill_bits}: {payload!r}")]
        return [fix for payload in payloads for fix in decode_fixes([payload])]
    fixes: list[tuple[int, float, float] | ValueError | None] = []
    type_end, type_mask = _TYPE_ROW.end, _TYPE_ROW.mask
    for (payload, fill_bits), value in zip(payloads, values):
        bits = 6 * len(payload) - fill_bits
        if bits < type_end:
            fixes.append(ValueError(f"payload too short: {bits} bits, no message type"))
            continue
        layout = _FIXES.get(value >> (bits - type_end) & type_mask)
        if layout is None:
            fixes.append(None)
            continue
        (needed, mmsi_end, mmsi_mask, lon_end, lon_mask, lon_sign, to_lon,
         lat_end, lat_mask, lat_sign, to_lat) = layout
        if bits < needed:
            fixes.append(ValueError(f"payload too short: {bits} bits, needs {needed}"))
            continue
        lon = value >> (bits - lon_end) & lon_mask
        lat = value >> (bits - lat_end) & lat_mask
        fixes.append((
            value >> (bits - mmsi_end) & mmsi_mask,
            to_lon(lon - ((lon & lon_sign) << 1)),
            to_lat(lat - ((lat & lat_sign) << 1)),
        ))
    return fixes


def decode_mmsi(payload: str, fill_bits: int = 0) -> int:
    """The MMSI of an armored payload, read from its header characters only.

    The rest of the payload is not unarmored, so an invalid character
    past the header goes unnoticed here (the Data Scanner rejects it).
    Raises ``ValueError`` on an invalid header character or a payload
    shorter than the header.
    """
    # Fill bits pad the last character, so they reach the header only
    # when the header characters are the whole payload.
    fill_bits = fill_bits if len(payload) <= _HEADER_CHARS else 0
    value, bits = unarmor(payload[:_HEADER_CHARS], fill_bits)
    if bits < _MMSI_ROW.end:
        raise ValueError(f"payload too short: {bits} bits, mmsi ends at {_MMSI_ROW.end}")
    return _read(_MMSI_ROW, value, bits)

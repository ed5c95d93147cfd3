"""The AIS 6-bit ASCII payload armor.

AIVDM payloads encode each group of 6 bits as one printable character: the
6-bit value 0..63 maps to ASCII 48..87 for values below 40 and 96..119 for
values 40 and above (ITU-R M.1371 table armoring).  A payload's bits are
carried as one big-endian integer plus its bit count; the fill bits that
pad the last character to six are added by :func:`armor` and stripped by
:func:`unarmor`.

Base64 is the same 6-bits-per-character scheme over another alphabet, so
:func:`unarmor` renames each armor character to the base64 character of
the same value and lets :func:`binascii.a2b_base64` pack the bits.
:func:`unarmor_many` does that once for a whole batch of payloads, each
padded to whole base64 quanta so it owns a known slice of the bytes.
"""

import binascii

#: The armor character of each 6-bit value.
_CHARS = "".join(chr(value + 48 if value < 40 else value + 56) for value in range(64))
_ARMOR_BYTES = _CHARS.encode("ascii")
#: Armor byte → the base64 byte of the same 6-bit value.
_TO_BASE64 = bytes.maketrans(
    _ARMOR_BYTES,
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
)
#: Zero characters that round a payload up to whole base64 quanta.
_PAD = (b"", b"A", b"AA", b"AAA")
#: The same zeros before renaming: the armor character of value 0.
_ARMOR_PAD = ("", "0", "00", "000")


def armor(value: int, bits: int) -> tuple[str, int]:
    """``(payload, fill_bits)`` carrying the ``bits``-bit integer ``value``."""
    fill = -bits % 6
    value <<= fill
    chars = [_CHARS[value >> shift & 63] for shift in range(bits + fill - 6, -1, -6)]
    return "".join(chars), fill


def unarmor(payload: str, fill_bits: int = 0) -> tuple[int, int]:
    """``(value, bits)`` of an armored payload, its fill bits stripped.

    Raises ``ValueError`` on a character outside the armor alphabet, or
    on fill bits outside 0–5 or longer than the payload.
    """
    if not 0 <= fill_bits <= min(5, 6 * len(payload)):
        raise ValueError(f"fill bits out of range: {fill_bits}")
    try:
        raw = payload.encode("latin-1")
        # Deleting every armor byte leaves exactly the invalid ones.
        invalid = raw.translate(None, _ARMOR_BYTES)
    except UnicodeEncodeError:
        invalid = True
    if invalid:
        raise ValueError(f"invalid 6-bit ASCII character in {payload!r}")
    pad = -len(raw) % 4
    packed = binascii.a2b_base64(raw.translate(_TO_BASE64) + _PAD[pad])
    return int.from_bytes(packed, "big") >> (6 * pad + fill_bits), 6 * len(raw) - fill_bits


def unarmor_many(payloads: list[tuple[str, int]]) -> list[int] | None:
    """The value :func:`unarmor` gives each ``(payload, fill_bits)`` (its
    bit count is ``6 * len(payload) - fill_bits``), or ``None`` when any
    of them would raise.

    One validation, one renaming and one base64 decode serve the whole
    batch.
    """
    try:
        raw = "".join(
            payload + _ARMOR_PAD[-len(payload) % 4] for payload, _ in payloads
        ).encode("latin-1")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, _ARMOR_BYTES):
        return None
    packed = binascii.a2b_base64(raw.translate(_TO_BASE64))
    values = []
    start = 0
    for payload, fill_bits in payloads:
        chars = len(payload)
        if not 0 <= fill_bits <= 5 or fill_bits > 6 * chars:
            return None
        pad = -chars % 4
        end = start + (chars + pad) // 4 * 3
        values.append(int.from_bytes(packed[start:end], "big") >> (6 * pad + fill_bits))
        start = end
    return values

"""The AIS 6-bit ASCII payload armor.

AIVDM payloads encode each group of 6 bits as one printable character: the
6-bit value 0..63 maps to ASCII 48..87 for values below 40 and 96..119 for
values 40 and above (ITU-R M.1371 table armoring).  A payload's bits are
carried as one big-endian integer plus its bit count; the fill bits that
pad the last character to six are added by :func:`armor` and stripped by
:func:`unarmor`.
"""

#: The armor character of each 6-bit value.
_CHARS = "".join(chr(value + 48 if value < 40 else value + 56) for value in range(64))
#: Armor character → its 6-bit value as two octal digits.
_OCTAL = {ord(char): f"{value:02o}" for value, char in enumerate(_CHARS)}


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
    digits = payload.translate(_OCTAL)
    # Every armor character became two digits; any other is still one.
    if len(digits) != 2 * len(payload):
        raise ValueError(f"invalid 6-bit ASCII character in {payload!r}")
    return int(digits or "0", 8) >> fill_bits, 6 * len(payload) - fill_bits

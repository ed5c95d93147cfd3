"""NMEA 0183 framing for AIS: the ``!AIVDM`` sentence.

An AIVDM sentence looks like::

    !AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,0*24

with fields: fragment count, fragment number, sequential message id, radio
channel, armored payload, fill bits — followed by ``*`` and a two-hex-digit
XOR checksum over everything between ``!`` and ``*``.

The Data Scanner discards sentences with bad checksums ("clean them from
distortions caused during transmission — e.g., discard messages with bad
checksum", Section 2), so checksum handling is implemented faithfully.
Framing and checksum are separate steps: :func:`unwrap_aivdm` does both,
:func:`unwrap_many` does both for a batch (the scanner), and
:func:`frame_aivdm` only the framing (the gateway router, which forwards
the sentence to the scanner that checks it).
"""

import re
from functools import reduce
from operator import xor
from typing import NamedTuple


class NmeaFormatError(ValueError):
    """The sentence does not have the AIVDM structure."""


class ChecksumError(ValueError):
    """The sentence checksum does not match its contents."""


class AivdmSentence(NamedTuple):
    """Parsed fields of one AIVDM sentence (possibly one fragment of many).

    Long messages (e.g. the 312-bit type 19) may be split across sentences;
    ``fragment_count``/``fragment_number`` carry the 1-based framing and
    ``message_id`` the sequential id shared by fragments of one message
    (empty for single-fragment sentences).  ``fill_bits`` is only
    meaningful on the final fragment.  A tuple, so building one per
    sentence costs one allocation.
    """

    payload: str
    fill_bits: int
    channel: str
    fragment_count: int = 1
    fragment_number: int = 1
    message_id: str = ""

    @property
    def is_fragmented(self) -> bool:
        """Whether this sentence is one piece of a multi-sentence message."""
        return self.fragment_count > 1

    @property
    def group_key(self) -> tuple[str, str, int]:
        """What the fragments of one message share: ``(channel, message
        id, fragment count)`` — the scanner's assembler and the gateway
        router both key open groups by it."""
        return (self.channel, self.message_id, self.fragment_count)


def nmea_checksum(body: str) -> str:
    """XOR checksum of a sentence body, as two uppercase hex digits.

    The fold runs over the body's code points (more than two digits
    when one is past 255, so such a body never matches a declared sum).
    """
    try:
        codes = body.encode("latin-1")
    except UnicodeEncodeError:
        codes = map(ord, body)
    return f"{reduce(xor, codes, 0):02X}"


def wrap_aivdm(payload: str, fill_bits: int, channel: str = "A") -> str:
    """Frame an armored payload as a single-fragment AIVDM sentence."""
    body = f"AIVDM,1,1,,{channel},{payload},{fill_bits}"
    return f"!{body}*{nmea_checksum(body)}"


def wrap_aivdm_fragments(
    payload: str,
    fill_bits: int,
    channel: str = "A",
    message_id: int = 1,
    fragments: int = 2,
) -> list[str]:
    """Frame one armored payload as a multi-fragment sentence group.

    The payload is split into ``fragments`` near-equal chunks; every
    fragment carries the shared ``message_id`` and only the last carries
    the fill bits, per NMEA convention.  Receivers reassemble by
    concatenating the payloads in fragment order.
    """
    if fragments < 1:
        raise ValueError(f"fragment count must be positive: {fragments}")
    if fragments > len(payload):
        raise ValueError(
            f"cannot split a {len(payload)}-char payload into {fragments} "
            "non-empty fragments"
        )
    chunk = -(-len(payload) // fragments)  # ceil division
    sentences = []
    for number in range(1, fragments + 1):
        piece = payload[(number - 1) * chunk : number * chunk]
        fill = fill_bits if number == fragments else 0
        body = (
            f"AIVDM,{fragments},{number},{message_id},{channel},{piece},{fill}"
        )
        sentences.append(f"!{body}*{nmea_checksum(body)}")
    return sentences


def unwrap_aivdm(sentence: str) -> AivdmSentence:
    """Parse and validate one AIVDM sentence: its framing and checksum.

    Raises :class:`NmeaFormatError` on structural problems and
    :class:`ChecksumError` when the checksum does not match; a sentence
    that has both is a checksum error.
    """
    body, declared = _split(sentence)
    computed = nmea_checksum(body)
    if computed != declared.upper():
        raise ChecksumError(
            f"checksum mismatch: computed {computed}, declared {declared.upper()}"
        )
    return _fields(body)


#: The usual shape of a sentence: one-digit fragment fields, a fill digit
#: and two hex checksum digits.  For a sentence of this shape the checks
#: of :func:`unwrap_aivdm` reduce to the checksum and the fragment order;
#: every other sentence goes through :func:`unwrap_aivdm` itself.
_USUAL = re.compile(
    r"!AIVD[MO],([1-9]),([1-9]),([^,]*),([^,]*),([^,]+),([0-5])\*([0-9A-Fa-f]{2})"
).fullmatch
#: Declared checksum digits → the XOR of ``!``, ``*``, the two digits and
#: the value they declare: what the XOR of a whole matching sentence is.
_SENTENCE_SUMS = {
    high + low: 0x21 ^ 0x2A ^ ord(high) ^ ord(low) ^ int(high + low, 16)
    for high in "0123456789ABCDEFabcdef"
    for low in "0123456789ABCDEFabcdef"
}
#: A one-digit framing field's value, without ``int()``.
_DIGITS = {str(digit): digit for digit in range(10)}
#: Longest sentence whose checksum :func:`_xor_sums` folds in a lane.
_LANE_CHARS = 128


def unwrap_many(sentences: list[str]) -> list[AivdmSentence | ValueError]:
    """:func:`unwrap_aivdm` of each sentence: its fields, or the
    :class:`ChecksumError` or :class:`NmeaFormatError` it would raise
    (returned, not raised).

    The checksums of the whole batch are folded at once
    (:func:`_xor_sums`), and a sentence of the usual shape is framed by
    one regular-expression match.
    """
    stripped = [sentence.strip() for sentence in sentences]
    frames: list[AivdmSentence | ValueError] = []
    for sentence, total in zip(stripped, _xor_sums(stripped)):
        match = _USUAL(sentence)
        if match is None:
            try:
                frames.append(unwrap_aivdm(sentence))
            except ValueError as error:
                frames.append(error)
            continue
        count, number, message_id, channel, payload, fill, declared = match.groups()
        if total != _SENTENCE_SUMS[declared]:
            frames.append(ChecksumError(f"checksum mismatch, declared {declared.upper()}"))
        elif number > count:
            frames.append(
                NmeaFormatError(f"inconsistent fragment framing: {number}/{count}")
            )
        else:
            frames.append(tuple.__new__(AivdmSentence, (
                payload, _DIGITS[fill], channel, _DIGITS[count], _DIGITS[number], message_id
            )))
    return frames


def _xor_sums(sentences: list[str]) -> list[int]:
    """The XOR of every character code of each sentence.

    Sentences of latin-1 characters, none longer than :data:`_LANE_CHARS`,
    are folded together: each is zero-padded to a power-of-two lane of
    one integer, and halving shifts fold every lane into its first byte.
    """
    width = max(map(len, sentences), default=0)
    if width <= _LANE_CHARS:
        lane = 1 << max(width - 1, 0).bit_length()
        try:
            blob = "".join(
                sentence.ljust(lane, "\0") for sentence in sentences
            ).encode("latin-1")
        except UnicodeEncodeError:
            pass
        else:
            value = int.from_bytes(blob, "little")
            shift = lane // 2
            while shift:
                value ^= value >> (8 * shift)
                shift //= 2
            return list(value.to_bytes(len(blob), "little")[::lane])
    return [reduce(xor, map(ord, sentence), 0) for sentence in sentences]


def frame_aivdm(sentence: str) -> AivdmSentence:
    """Parse one AIVDM sentence's framing without verifying its checksum.

    The gateway router needs only the framing; the owning runtime's
    :func:`unwrap_aivdm` is the one checksum.  Raises
    :class:`NmeaFormatError` exactly where :func:`unwrap_aivdm` would.
    """
    return _fields(_split(sentence)[0])


def _split(sentence: str) -> tuple[str, str]:
    """``(body, declared checksum)`` of a ``!body*hh`` sentence."""
    sentence = sentence.strip()
    if not sentence.startswith("!"):
        raise NmeaFormatError("sentence must start with '!'")
    star = sentence.rfind("*")
    if star == -1 or star + 3 != len(sentence):
        raise NmeaFormatError("missing or malformed checksum suffix")
    return sentence[1:star], sentence[star + 1 :]


def _fields(body: str) -> AivdmSentence:
    """The framing fields of a sentence body."""
    fields = body.split(",")
    if len(fields) != 7 or fields[0] not in ("AIVDM", "AIVDO"):
        raise NmeaFormatError(f"not an AIVDM sentence: {body!r}")
    try:
        fragment_count = int(fields[1])
        fragment_number = int(fields[2])
        fill_bits = int(fields[6])
    except ValueError as exc:
        raise NmeaFormatError(f"non-numeric framing field in {body!r}") from exc
    if fragment_count < 1 or not 1 <= fragment_number <= fragment_count:
        raise NmeaFormatError(
            f"inconsistent fragment framing: {fragment_number}/{fragment_count}"
        )
    if not 0 <= fill_bits <= 5:
        raise NmeaFormatError(f"fill bits out of range 0-5: {fill_bits}")
    payload = fields[5]
    if not payload:
        raise NmeaFormatError("empty payload")
    # tuple.__new__ skips the keyword-handling constructor: same tuple.
    return tuple.__new__(AivdmSentence, (
        payload, fill_bits, fields[4], fragment_count, fragment_number, fields[3]
    ))

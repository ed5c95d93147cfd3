"""AIS substrate: message encoding/decoding and the stream Data Scanner.

The Automatic Identification System relays VHF messages wrapped in NMEA 0183
``!AIVDM`` sentences whose payload is a 6-bit-ASCII-armored bit string.  The
paper's system consumes message types 1, 2, 3 (Class A position reports),
18 and 19 (Class B), extracting ``(MMSI, Lon, Lat, tau)`` tuples and dropping
corrupt messages (bad checksum, out-of-range coordinates) before tracking.

This package implements that substrate from scratch:

* :mod:`repro.ais.sixbit` — the 6-bit ASCII armor, payload ↔ one integer;
* :mod:`repro.ais.messages` — one field table per message class, walked
  by encode, decode and the gateway's MMSI read;
* :mod:`repro.ais.nmea` — AIVDM sentence framing and checksums;
* :mod:`repro.ais.scanner` — the Data Scanner of Figure 1 (decode + clean);
* :mod:`repro.ais.stream` — positional tuples and stream replay with the
  delay / out-of-order behaviour discussed in Sections 2 and 4.2.
"""

from repro.ais.messages import (
    PositionReport,
    decode_fix,
    decode_payload,
    encode_position_report,
)
from repro.ais.nmea import (
    AivdmSentence,
    ChecksumError,
    NmeaFormatError,
    frame_aivdm,
    nmea_checksum,
    unwrap_aivdm,
    wrap_aivdm,
    wrap_aivdm_fragments,
)
from repro.ais.scanner import DataScanner, FragmentAssembler, ScannerStatistics
from repro.ais.stream import DelayModel, PositionalTuple, StreamReplayer

__all__ = [
    "AivdmSentence",
    "ChecksumError",
    "DataScanner",
    "DelayModel",
    "FragmentAssembler",
    "NmeaFormatError",
    "PositionReport",
    "PositionalTuple",
    "ScannerStatistics",
    "StreamReplayer",
    "decode_fix",
    "decode_payload",
    "encode_position_report",
    "frame_aivdm",
    "nmea_checksum",
    "unwrap_aivdm",
    "wrap_aivdm",
    "wrap_aivdm_fragments",
]

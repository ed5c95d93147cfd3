"""The Data Scanner of Figure 1.

"A Data Scanner decodes each AIS message, identifies those four attributes
[MMSI, Lon, Lat, tau], and cleans them from distortions caused during
transmission (e.g., discard messages with bad checksum)." — Section 2.

The scanner accepts raw ``(receive_time, sentence)`` pairs, validates the
NMEA framing and checksum, reassembles multi-fragment sentence groups
(long type-19 reports are commonly split in two on the wire), decodes the
payload, filters to position-report types 1/2/3/18/19, rejects
sentinel/out-of-range coordinates, and emits
:class:`~repro.ais.stream.PositionalTuple` values.  Counters of every
rejection cause are kept for observability — including fragments that
never completed, which are *counted*, never silently lost.
"""

from dataclasses import dataclass

from repro import obs
from repro.ais.messages import decode_fix, valid_fix
from repro.ais.nmea import (
    AivdmSentence,
    ChecksumError,
    NmeaFormatError,
    unwrap_aivdm,
)
from repro.ais.stream import PositionalTuple


@dataclass
class ScannerStatistics:
    """Counters describing what the scanner did with its input."""

    accepted: int = 0
    bad_checksum: int = 0
    bad_format: int = 0
    bad_payload: int = 0
    unsupported_type: int = 0
    invalid_position: int = 0
    #: Multi-fragment groups discarded incomplete (orphaned, superseded,
    #: or still pending at :meth:`DataScanner.flush`), in sentences.
    fragmented_dropped: int = 0
    #: Multi-fragment groups successfully reassembled into one message.
    reassembled: int = 0

    @property
    def rejected(self) -> int:
        """Total number of discarded sentences."""
        return (
            self.bad_checksum
            + self.bad_format
            + self.bad_payload
            + self.unsupported_type
            + self.invalid_position
            + self.fragmented_dropped
        )

    @property
    def total(self) -> int:
        """Total number of sentences seen (pending fragments excluded)."""
        return self.accepted + self.rejected


class FragmentAssembler:
    """Reassembly buffer for multi-fragment AIVDM sentence groups.

    Fragments of one message share
    :attr:`~repro.ais.nmea.AivdmSentence.group_key`; the assembler holds
    partial groups until every fragment has arrived, then hands back a
    joined single-fragment sentence.  A bounded number of partial groups is kept: the oldest is
    discarded (its sentences counted) when ``max_pending`` is exceeded,
    so a stream of orphans cannot grow memory without bound.
    """

    def __init__(self, max_pending: int = 64):
        self.max_pending = max_pending
        #: key -> {fragment_number: AivdmSentence}; dict order doubles as
        #: arrival order, which is what the eviction policy needs.
        self._pending: dict[tuple, dict[int, AivdmSentence]] = {}
        self.dropped_sentences = 0

    def add(self, parsed: AivdmSentence) -> AivdmSentence | None:
        """Buffer one fragment; the reassembled sentence once complete.

        A repeated fragment number supersedes the stale group (the old
        sentences count as dropped): sequential message ids are only two
        bits on the wire, so collisions simply mean the old group died.
        """
        key = parsed.group_key
        group = self._pending.get(key)
        if group is not None and parsed.fragment_number in group:
            self.dropped_sentences += len(group)
            obs.count("ais.fragments.dropped", len(group))
            del self._pending[key]
            group = None
        if group is None:
            group = self._pending[key] = {}
        group[parsed.fragment_number] = parsed
        if len(group) < parsed.fragment_count:
            self._evict_overflow()
            return None
        del self._pending[key]
        ordered = [group[i] for i in range(1, parsed.fragment_count + 1)]
        return AivdmSentence(
            payload="".join(fragment.payload for fragment in ordered),
            fill_bits=ordered[-1].fill_bits,
            channel=parsed.channel,
        )

    def _evict_overflow(self) -> None:
        while len(self._pending) > self.max_pending:
            oldest = next(iter(self._pending))
            evicted = len(self._pending.pop(oldest))
            self.dropped_sentences += evicted
            obs.count("ais.fragments.dropped", evicted)

    def flush(self) -> int:
        """Drop all pending partial groups; returns sentences discarded."""
        dropped = sum(len(group) for group in self._pending.values())
        self._pending.clear()
        self.dropped_sentences += dropped
        if dropped:
            obs.count("ais.fragments.dropped", dropped)
        return dropped


class DataScanner:
    """Decode and clean raw AIVDM sentences into positional tuples."""

    def __init__(self, max_pending_fragments: int = 64) -> None:
        self.statistics = ScannerStatistics()
        #: Why the latest :meth:`scan` call discarded its sentence — the
        #: name of the :class:`ScannerStatistics` counter it bumped — or
        #: ``None`` when it emitted a tuple or buffered a fragment.
        self.last_rejection: str | None = None
        self._assembler = FragmentAssembler(max_pending_fragments)

    def scan(self, receive_time: int, sentence: str) -> PositionalTuple | None:
        """Process one sentence; return its positional tuple or ``None``.

        The timestamp of the emitted tuple is the receiver timestamp (AIS
        messages only carry the second-of-minute, so receivers stamp full
        timestamps, which is what the dataset of Section 5 records).  For
        multi-fragment messages that is the final fragment's receive time.
        """
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
            stats.fragmented_dropped += (
                self._assembler.dropped_sentences - before
            )
            if parsed is None:
                return None
            stats.reassembled += 1
        try:
            fix = decode_fix(parsed.payload, parsed.fill_bits)
        except ValueError:
            return self._reject("bad_payload")
        if fix is None:
            return self._reject("unsupported_type")
        mmsi, lon, lat = fix
        if not valid_fix(lon, lat):
            return self._reject("invalid_position")
        stats.accepted += 1
        return PositionalTuple(mmsi, lon, lat, receive_time)

    def _reject(self, cause: str) -> None:
        """Count one discarded sentence under ``cause`` and name it."""
        stats = self.statistics
        setattr(stats, cause, getattr(stats, cause) + 1)
        self.last_rejection = cause

    def scan_many(
        self, sentences: list[tuple[int, str]]
    ) -> list[PositionalTuple]:
        """Scan a batch of ``(receive_time, sentence)`` pairs."""
        tuples = []
        for receive_time, sentence in sentences:
            position = self.scan(receive_time, sentence)
            if position is not None:
                tuples.append(position)
        return tuples

    def flush(self) -> int:
        """End-of-stream: count still-pending fragments as dropped.

        Returns the number of sentences discarded; they show up in
        ``statistics.fragmented_dropped`` like every other loss.
        """
        dropped = self._assembler.flush()
        self.statistics.fragmented_dropped += dropped
        return dropped

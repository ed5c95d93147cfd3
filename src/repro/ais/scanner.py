"""The Data Scanner of Figure 1.

"A Data Scanner decodes each AIS message, identifies those four attributes
[MMSI, Lon, Lat, tau], and cleans them from distortions caused during
transmission (e.g., discard messages with bad checksum)." — Section 2.

The scanner accepts batches of raw ``(receive_time, sentence)`` pairs,
validates the NMEA framing and checksum, reassembles multi-fragment
sentence groups (long type-19 reports are commonly split in two on the
wire), decodes the payload, filters to position-report types
1/2/3/18/19, rejects sentinel/out-of-range coordinates, and emits
:class:`~repro.ais.stream.PositionalTuple` values.  Counters of every
rejection cause are kept for observability — including fragments that
never completed, which are *counted*, never silently lost — and each
batch names the cause of every sentence it discarded.
"""

from dataclasses import dataclass

from repro import obs
from repro.ais.messages import decode_fixes, valid_fix
from repro.ais.nmea import AivdmSentence, ChecksumError, unwrap_many
from repro.ais.stream import PositionalTuple


#: Sentences :meth:`DataScanner.scan_many` frames and decodes together.
#: Bounds the transient memory of a long batch (an offline replay scans
#: its whole stream in one call) and keeps the checksum fold in cache.
SCAN_CHUNK = 1024


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
    """Decode and clean raw AIVDM sentences into positional tuples.

    :meth:`scan_many` is the one path: a batch is framed and checksummed
    together (:func:`~repro.ais.nmea.unwrap_many`), fragments go through
    the :class:`FragmentAssembler` in arrival order, and every completed
    message's MMSI, lon and lat are read together through the compiled
    field tables (:func:`~repro.ais.messages.decode_fixes`).  How the
    batch is cut changes nothing: the tuples, the statistics and the
    rejections equal those of one sentence at a time.
    """

    def __init__(self, max_pending_fragments: int = 64) -> None:
        self.statistics = ScannerStatistics()
        #: ``(index, cause)`` of each sentence the latest :meth:`scan_many`
        #: discarded, in input order; the cause is the name of the
        #: :class:`ScannerStatistics` counter it bumped.  Fragments still
        #: waiting for their group are not discarded.
        self.rejections: list[tuple[int, str]] = []
        #: The cause of the latest :meth:`scan` call's rejection, or
        #: ``None`` when it emitted a tuple or buffered a fragment.
        self.last_rejection: str | None = None
        self._assembler = FragmentAssembler(max_pending_fragments)

    def scan(self, receive_time: int, sentence: str) -> PositionalTuple | None:
        """Process one sentence; return its positional tuple or ``None``."""
        positions = self.scan_many([(receive_time, sentence)])
        self.last_rejection = self.rejections[0][1] if self.rejections else None
        return positions[0] if positions else None

    def scan_many(
        self, sentences: list[tuple[int, str]]
    ) -> list[PositionalTuple]:
        """Scan a batch of ``(receive_time, sentence)`` pairs, in order.

        The timestamp of an emitted tuple is the receiver timestamp (AIS
        messages only carry the second-of-minute, so receivers stamp full
        timestamps, which is what the dataset of Section 5 records).  For
        a multi-fragment message that is the final fragment's receive time.
        """
        positions: list[PositionalTuple] = []
        rejections: list[tuple[int, str]] = []
        for start in range(0, len(sentences), SCAN_CHUNK):
            scanned, rejected = self._scan_chunk(sentences[start : start + SCAN_CHUNK])
            positions += scanned
            rejections += [(start + index, cause) for index, cause in rejected]
        stats = self.statistics
        stats.accepted += len(positions)
        for _, cause in rejections:
            setattr(stats, cause, getattr(stats, cause) + 1)
        self.rejections = rejections
        return positions

    def _scan_chunk(
        self, chunk: list[tuple[int, str]]
    ) -> tuple[list[PositionalTuple], list[tuple[int, str]]]:
        """The tuples of ``chunk`` and its ``(index, cause)`` rejections."""
        stats = self.statistics
        assembler = self._assembler
        rejected: list[tuple[int, str]] = []
        # (payload, fill bits) of each completed message, and the index
        # of the sentence that completed it.
        messages: list[tuple[str, int]] = []
        owners: list[int] = []
        for index, frame in enumerate(unwrap_many([sentence for _, sentence in chunk])):
            if frame.__class__ is not AivdmSentence:
                bad = "bad_checksum" if isinstance(frame, ChecksumError) else "bad_format"
                rejected.append((index, bad))
                continue
            if frame.fragment_count > 1:
                before = assembler.dropped_sentences
                frame = assembler.add(frame)
                stats.fragmented_dropped += assembler.dropped_sentences - before
                if frame is None:
                    continue
                stats.reassembled += 1
            messages.append(frame[:2])  # (payload, fill bits)
            owners.append(index)
        framing = len(rejected)
        positions = []
        for index, fix in zip(owners, decode_fixes(messages)):
            if fix.__class__ is tuple and valid_fix(fix[1], fix[2]):
                # tuple.__new__ skips the keyword-handling constructor.
                positions.append(tuple.__new__(PositionalTuple, (*fix, chunk[index][0])))
            elif fix is None:
                rejected.append((index, "unsupported_type"))
            elif isinstance(fix, ValueError):
                rejected.append((index, "bad_payload"))
            else:
                rejected.append((index, "invalid_position"))
        if framing and len(rejected) > framing:
            rejected.sort()
        return positions, rejected

    def flush(self) -> int:
        """End-of-stream: count still-pending fragments as dropped.

        Returns the number of sentences discarded; they show up in
        ``statistics.fragmented_dropped`` like every other loss.
        """
        dropped = self._assembler.flush()
        self.statistics.fragmented_dropped += dropped
        return dropped

"""The crash-safe write-ahead ingest journal.

Segmented append-only files of CRC-framed records.  Each record is::

    <length:u32 LE> <crc32:u32 LE> <payload bytes>

with the CRC taken over the payload.  A segment is named
``wal-<first_seq:012d>.wal`` so lexicographic order equals replay
order.  The writer always starts a *new* segment on open — it never
appends to a file that might carry a torn tail from a previous crash.

Recovery is truncated-tail tolerant and prefix-consistent: replay stops
at the first record that is short, oversized or fails its CRC, and
everything up to that point is returned.  A writer opening a damaged
journal repairs it to that prefix (the torn segment is cut back to its
last valid record and fsynced, later segments are deleted, the repair is
counted), so what it appends next is reachable to the next recovery.
For the ingest journal that prefix is exactly the durable stream — the
slide batcher journals each sentence *before* scanning it, so replaying
the journal through a fresh pipeline deterministically reproduces every
slide the crashed process had produced, byte for byte
(docs/RESILIENCE.md).

Fsync policy trades durability for throughput:

* ``always`` — fsync after every record; nothing acknowledged is lost.
* ``batch`` — flush every record to the OS, fsync at explicit
  :meth:`WriteAheadLog.sync` points (the service syncs at each slide
  boundary): a crash loses at most the records since the last boundary.
* ``never`` — flush to the OS only; a host crash may lose OS-buffered
  records (a mere process kill does not).
"""

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.resilience.faults import fault_point

_HEADER = struct.Struct("<II")
#: Upper bound on a single record; anything larger in a header is
#: treated as corruption.
MAX_RECORD_BYTES = 16 * 1024 * 1024

FSYNC_POLICIES = ("always", "batch", "never")

#: Segment filename prefix.
SEGMENT_PREFIX = "wal"


@dataclass(frozen=True)
class WalRecord:
    """One recovered record: its sequence number and raw payload."""

    seq: int
    payload: bytes


@dataclass
class RecoveryStats:
    """What recovery found on disk — losses are counted, never silent."""

    segments: int = 0
    records: int = 0
    #: Segments whose tail was truncated or corrupt (replay stopped there).
    corrupt_segments: int = 0
    #: Bytes skipped after the first corruption (prefix semantics).
    dropped_bytes: int = 0
    last_seq: int = -1
    #: Damaged journals a writer cut back to the recovered prefix at open.
    repaired_segments: int = 0

    def to_dict(self) -> dict:
        return {
            "segments": self.segments,
            "records": self.records,
            "corrupt_segments": self.corrupt_segments,
            "dropped_bytes": self.dropped_bytes,
            "last_seq": self.last_seq,
            "repaired_segments": self.repaired_segments,
        }


def _segment_files(directory: Path) -> list[Path]:
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"{SEGMENT_PREFIX}-*.wal"))


def _first_seq_of(path: Path) -> int:
    """The segment's base sequence number, encoded in its filename."""
    return int(path.stem.rsplit("-", 1)[1])


def _read_segment(path: Path, next_seq: int) -> tuple[list[WalRecord], bool, int]:
    """All valid records of one segment.

    Returns ``(records, clean, dropped_bytes)`` — ``clean`` is False when
    the segment ends in a truncated or corrupt record.
    """
    data = path.read_bytes()
    records: list[WalRecord] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            return records, False, total - offset
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if length > MAX_RECORD_BYTES or start + length > total:
            return records, False, total - offset
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return records, False, total - offset
        records.append(WalRecord(next_seq + len(records), payload))
        offset = start + length
    return records, True, 0


def read_wal(directory: str | Path) -> tuple[list[WalRecord], RecoveryStats]:
    """Replay every record under ``directory``, prefix-consistently.

    Replay stops entirely at the first corruption (even mid-directory):
    records *after* a corrupt region have no guaranteed ordering
    relationship to the lost ones, so a prefix is the only sound
    recovery.  Everything dropped is counted in the stats.
    """
    records, stats, _ = _recover(Path(directory))
    return records, stats


def _recover(
    directory: Path,
) -> tuple[list[WalRecord], RecoveryStats, tuple[Path, int] | None]:
    """:func:`read_wal`, plus where the damage starts: the first corrupt
    segment and its count of valid bytes (``None`` for a clean journal)."""
    stats = RecoveryStats()
    records: list[WalRecord] = []
    damage = None
    segments = _segment_files(directory)
    for index, path in enumerate(segments):
        stats.segments += 1
        segment_records, clean, dropped = _read_segment(
            path, _first_seq_of(path)
        )
        records.extend(segment_records)
        if not clean:
            stats.corrupt_segments += 1
            stats.dropped_bytes += dropped
            for later in segments[index + 1:]:
                stats.dropped_bytes += later.stat().st_size
            stats.segments = len(segments)
            damage = (path, path.stat().st_size - dropped)
            break
    stats.records = len(records)
    stats.last_seq = records[-1].seq if records else -1
    return records, stats, damage


#: WAL segment rotation threshold, bytes.
SEGMENT_MAX_BYTES = 4 * 1024 * 1024


class WriteAheadLog:
    """Segmented append-only journal with CRC framing and rotation.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.
    fsync:
        One of :data:`FSYNC_POLICIES` (see module docstring).
    segment_max_bytes:
        Rotation threshold; a segment is closed once it exceeds this.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "batch",
        segment_max_bytes: int = SEGMENT_MAX_BYTES,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_max_bytes <= 0:
            raise ValueError(
                f"segment_max_bytes must be positive: {segment_max_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        #: Records recovered from disk at open (see :func:`read_wal`).
        self.recovered, self.recovery_stats, damage = _recover(self.directory)
        if damage is not None:
            self._repair(*damage)
        self._next_seq = self.recovery_stats.last_seq + 1
        self._handle = None
        self._segment_path: Path | None = None
        self._segment_bytes = 0
        #: Segments on disk that take no more appends, oldest first.
        self._closed_segments = _segment_files(self.directory)
        self.appended_count = 0
        self.synced_count = 0
        self._closed = False

    def _repair(self, damaged: Path, valid_bytes: int) -> None:
        """Cut the journal back to the prefix just recovered.

        Without this, the damage outlives the incarnation that found it:
        every later recovery would stop there again and lose whatever was
        appended after it.
        """
        for later in _segment_files(self.directory):
            if later > damaged:
                later.unlink()
        if valid_bytes == 0:
            damaged.unlink()
        else:
            with open(damaged, "r+b") as handle:
                handle.truncate(valid_bytes)
                os.fsync(handle.fileno())
        self.recovery_stats.repaired_segments += 1
        obs.count("resilience.wal.repaired_segments")

    # -- appending ------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Durably frame and append one record; returns its seq."""
        if self._closed:
            raise ValueError("write-ahead log is closed")
        if self._handle is None:
            self._open_segment()
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._handle.write(frame)
        seq = self._next_seq
        self._next_seq += 1
        self._segment_bytes += len(frame)
        self.appended_count += 1
        spec = fault_point("wal.append")
        if spec is not None and spec.kind == "corrupt":
            self._corrupt_tail(len(frame))
        if self.fsync == "always":
            self._flush(fsync=True)
        else:
            # Flush the user-space buffer so an in-process crash (or a
            # reader in the same process) still sees the record; only a
            # host/OS crash can lose it under batch/never.
            self._handle.flush()
        if self._segment_bytes >= self.segment_max_bytes:
            self._rotate()
        return seq

    def sync(self) -> None:
        """Batch-policy durability point (the service's slide boundary)."""
        if self._handle is None:
            return
        self._flush(fsync=self.fsync != "never")
        self.synced_count += 1

    def _flush(self, fsync: bool) -> None:
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())

    def _corrupt_tail(self, frame_len: int) -> None:
        """Injected ``wal.append:corrupt`` fault: garble the record just
        written, simulating a torn write at the segment tail."""
        self._handle.flush()
        with open(self._segment_path, "r+b") as raw:
            raw.seek(-min(8, frame_len), os.SEEK_END)
            raw.write(b"\xde\xad\xbe\xef\xde\xad\xbe\xef"[: min(8, frame_len)])
        obs.count("resilience.wal.injected_corruptions")

    # -- segments -------------------------------------------------------

    def _open_segment(self) -> None:
        self._segment_path = (
            self.directory / f"{SEGMENT_PREFIX}-{self._next_seq:012d}.wal"
        )
        if self._segment_path in self._closed_segments:
            # An empty segment left by a crash takes the appends again.
            self._closed_segments.remove(self._segment_path)
        self._handle = open(self._segment_path, "ab")
        self._segment_bytes = 0
        obs.count("resilience.wal.segments_opened")

    def _rotate(self) -> None:
        self._flush(fsync=self.fsync != "never")
        self._handle.close()
        self._closed_segments.append(self._segment_path)
        self._handle = None
        self._segment_path = None

    def truncate_all(self) -> int:
        """Delete every segment — the journal's obligation is met (the
        stream drained cleanly through finalize)."""
        self.sync()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            if self._segment_path is not None:
                self._segment_path.unlink(missing_ok=True)
                self._segment_path = None
        removed = len(self._closed_segments)
        for path in self._closed_segments:
            path.unlink(missing_ok=True)
        self._closed_segments.clear()
        obs.count("resilience.wal.truncated_clean")
        return removed + 1

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Flush and close the current segment; segments stay on disk."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            self._flush(fsync=self.fsync != "never")
            self._handle.close()
            self._closed_segments.append(self._segment_path)
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def segment_count(self) -> int:
        on_disk = len(self._closed_segments)
        return on_disk + (1 if self._handle is not None else 0)

    def snapshot(self) -> dict:
        """Health/metrics view of the journal."""
        return {
            "directory": str(self.directory),
            "fsync": self.fsync,
            "segments": self.segment_count(),
            "appended": self.appended_count,
            "synced": self.synced_count,
            "next_seq": self._next_seq,
            "recovered": self.recovery_stats.to_dict(),
        }


class IngestJournal:
    """The service's WAL specialization: ``(receive_time, sentence)``.

    Records are ``<epoch-seconds>\\t<sentence>`` in UTF-8 — the same
    timestamped form the ingest wire protocol uses, so a journal segment
    doubles as a replayable feed archive.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "batch",
    ):
        self.wal = WriteAheadLog(directory, fsync=fsync)
        #: The sentences recovered from a previous incarnation, in order.
        self.recovered: list[tuple[int, str]] = [
            self._decode(record.payload) for record in self.wal.recovered
        ]
        self.recovery_stats = self.wal.recovery_stats

    @staticmethod
    def _decode(payload: bytes) -> tuple[int, str]:
        head, _, sentence = payload.decode("utf-8").partition("\t")
        return int(head), sentence

    def append(self, receive_time: int, sentence: str) -> int:
        """Journal one ingested sentence *before* it is processed."""
        return self.wal.append(f"{receive_time}\t{sentence}".encode())

    def sync(self) -> None:
        self.wal.sync()

    def truncate_all(self) -> int:
        return self.wal.truncate_all()

    def close(self) -> None:
        self.wal.close()

    def snapshot(self) -> dict:
        return self.wal.snapshot()


def read_journal(
    directory: str | Path,
) -> tuple[list[tuple[int, str]], RecoveryStats]:
    """Read an ingest journal without opening a writer (drills, tests)."""
    records, stats = read_wal(directory)
    return [IngestJournal._decode(r.payload) for r in records], stats

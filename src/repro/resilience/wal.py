"""The crash-safe write-ahead ingest journal.

One append-only file, ``<directory>/ingest.wal``, of CRC-framed
records.  Each record is::

    <length:u32 LE> <crc32:u32 LE> <payload bytes>

with the CRC taken over the payload, and the payload is
``<epoch-seconds>\\t<sentence>`` in UTF-8 — the timestamped form the
ingest wire protocol uses, so the journal doubles as a replayable feed
archive.

Recovery is truncated-tail tolerant and prefix-consistent: replay stops
at the first record that is short, oversized or fails its CRC, and
everything up to that point is returned; the bytes after it are counted
as dropped.  A writer opening a damaged journal repairs it to that
prefix (the file is cut back to its last valid record and fsynced, the
repair is counted) and then appends to the same file, so what it
appends next is reachable to the next recovery.  For the ingest journal
that prefix is exactly the durable stream — the slide batcher journals
each sentence *before* scanning it, so replaying the journal through a
fresh pipeline deterministically reproduces every slide the crashed
process had produced, byte for byte (docs/RESILIENCE.md).  Nothing is
trimmed while the service runs: the file stays until a clean drain
deletes it.

Fsync policy trades durability for throughput:

* ``always`` — fsync after every record; nothing acknowledged is lost.
* ``batch`` — flush every record to the OS, fsync at explicit
  :meth:`IngestJournal.sync` points (the service syncs at each slide
  boundary): a crash loses at most the records since the last boundary.
* ``never`` — flush to the OS only; a host crash may lose OS-buffered
  records (a mere process kill does not).
"""

import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import obs
from repro.resilience.faults import fault_point

_HEADER = struct.Struct("<II")
#: Upper bound on a single record; anything larger in a header is
#: treated as corruption.
MAX_RECORD_BYTES = 16 * 1024 * 1024

FSYNC_POLICIES = ("always", "batch", "never")

#: The journal's file name inside its directory.
JOURNAL_NAME = "ingest.wal"


@dataclass
class RecoveryStats:
    """What recovery found on disk — losses are counted, never silent."""

    records: int = 0
    #: Bytes after the first short, oversized or corrupt record.
    dropped_bytes: int = 0
    #: Whether a writer cut the file back to the recovered prefix at open.
    repaired: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _recover(
    directory: Path,
) -> tuple[list[tuple[int, str]], RecoveryStats, int]:
    """The journal's valid prefix: its records, the stats, and its
    length in bytes."""
    old = sorted(directory.glob("wal-*.wal"))
    if old:
        raise ValueError(
            f"{directory} holds old-format journal segments "
            f"({', '.join(path.name for path in old)}), which this version "
            "does not read: move them away"
        )
    try:
        data = (directory / JOURNAL_NAME).read_bytes()
    except FileNotFoundError:
        data = b""
    records: list[tuple[int, str]] = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        payload = data[start:start + length]
        if (
            length > MAX_RECORD_BYTES
            or len(payload) < length
            or zlib.crc32(payload) != crc
        ):
            break
        head, _, sentence = payload.decode("utf-8").partition("\t")
        records.append((int(head), sentence))
        offset = start + length
    return records, RecoveryStats(len(records), len(data) - offset), offset


def read_journal(
    directory: str | Path,
) -> tuple[list[tuple[int, str]], RecoveryStats]:
    """Read an ingest journal without opening a writer (drills, tests)."""
    records, stats, _ = _recover(Path(directory))
    return records, stats


class IngestJournal:
    """The service's journal of ``(receive_time, sentence)`` records.

    Parameters
    ----------
    directory:
        Where ``ingest.wal`` lives; created if missing.  A directory
        still holding old-format ``wal-*.wal`` segments is refused.
    fsync:
        One of :data:`FSYNC_POLICIES` (see module docstring).
    """

    def __init__(self, directory: str | Path, fsync: str = "batch"):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_NAME
        self.fsync = fsync
        #: The sentences recovered from a previous incarnation, in order.
        self.recovered, self.recovery_stats, valid_bytes = _recover(
            self.directory
        )
        self._handle = open(self.path, "ab")
        if self.recovery_stats.dropped_bytes:
            # Without the repair the damage outlives the incarnation that
            # found it: every later recovery would stop there again and
            # lose whatever was appended after it.
            self._handle.truncate(valid_bytes)
            os.fsync(self._handle.fileno())
            self.recovery_stats.repaired = True
            obs.count("resilience.wal.repairs")
        self.appended_count = 0
        self.synced_count = 0

    def append(self, receive_time: int, sentence: str) -> None:
        """Journal one ingested sentence *before* it is processed."""
        if self._handle is None:
            raise ValueError("ingest journal is closed")
        payload = f"{receive_time}\t{sentence}".encode()
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._handle.write(frame)
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
        written, simulating a torn write at the journal's tail."""
        self._handle.flush()
        with open(self.path, "r+b") as raw:
            raw.seek(-min(8, frame_len), os.SEEK_END)
            raw.write(b"\xde\xad\xbe\xef\xde\xad\xbe\xef"[: min(8, frame_len)])
        obs.count("resilience.wal.injected_corruptions")

    def truncate_all(self) -> None:
        """Close and delete the journal — its obligation is met (the
        stream drained cleanly through finalize)."""
        self.close()
        self.path.unlink(missing_ok=True)
        obs.count("resilience.wal.truncated_clean")

    def close(self) -> None:
        """Flush and close the file; it stays on disk for the next
        incarnation to replay."""
        if self._handle is None:
            return
        self._flush(fsync=self.fsync != "never")
        self._handle.close()
        self._handle = None

    def snapshot(self) -> dict:
        """Health/metrics view of the journal."""
        return {
            "path": str(self.path),
            "fsync": self.fsync,
            "appended": self.appended_count,
            "synced": self.synced_count,
            "recovered": self.recovery_stats.to_dict(),
        }

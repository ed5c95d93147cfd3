"""Write-ahead log: framing, rotation, recovery, repair, truncation."""

import shutil
import struct

import pytest

from repro.resilience.wal import (
    IngestJournal,
    WriteAheadLog,
    read_journal,
    read_wal,
)


class TestFraming:
    def test_roundtrip_preserves_payloads_and_order(self, tmp_path):
        payloads = [f"record-{i}".encode() for i in range(50)]
        with WriteAheadLog(tmp_path) as wal:
            for payload in payloads:
                wal.append(payload)
        records, stats = read_wal(tmp_path)
        assert [r.payload for r in records] == payloads
        assert [r.seq for r in records] == list(range(50))
        assert stats.records == 50
        assert stats.corrupt_segments == 0

    def test_empty_directory_recovers_nothing(self, tmp_path):
        records, stats = read_wal(tmp_path / "missing")
        assert records == []
        assert stats.last_seq == -1

    def test_binary_payloads_survive(self, tmp_path):
        blob = bytes(range(256)) * 17
        with WriteAheadLog(tmp_path) as wal:
            wal.append(blob)
            wal.append(b"")
        records, _ = read_wal(tmp_path)
        assert records[0].payload == blob
        assert records[1].payload == b""

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_append_after_close_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        with pytest.raises(ValueError, match="closed"):
            wal.append(b"late")


class TestRotationAndRetention:
    def test_segments_rotate_at_size_threshold(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=64) as wal:
            for i in range(20):
                wal.append(f"payload-{i:04d}".encode())
        segments = sorted(tmp_path.glob("wal-*.wal"))
        assert len(segments) > 1
        # Lexicographic segment order is replay order (zero-padded seqs).
        records, _ = read_wal(tmp_path)
        assert [r.seq for r in records] == list(range(20))

    def test_reopen_continues_sequence_in_new_segment(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for i in range(5):
                wal.append(f"first-{i}".encode())
        wal2 = WriteAheadLog(tmp_path)
        assert len(wal2.recovered) == 5
        assert wal2.next_seq == 5
        wal2.append(b"second-0")
        wal2.close()
        records, _ = read_wal(tmp_path)
        assert [r.seq for r in records] == list(range(6))
        assert records[-1].payload == b"second-0"


class TestTruncatedTailRecovery:
    def _write(self, tmp_path, count=10):
        with WriteAheadLog(tmp_path) as wal:
            for i in range(count):
                wal.append(f"record-{i}".encode())
        return sorted(tmp_path.glob("wal-*.wal"))

    def test_truncated_tail_yields_clean_prefix(self, tmp_path):
        (segment,) = self._write(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-3])  # torn final record
        records, stats = read_wal(tmp_path)
        assert [r.payload for r in records] == [
            f"record-{i}".encode() for i in range(9)
        ]
        assert stats.corrupt_segments == 1
        assert stats.dropped_bytes > 0

    def test_corrupt_crc_stops_replay_at_corruption(self, tmp_path):
        (segment,) = self._write(tmp_path)
        data = bytearray(segment.read_bytes())
        # Flip one payload byte of the 4th record (after 3 clean frames).
        offset = sum(8 + len(f"record-{i}".encode()) for i in range(3))
        data[offset + 8] ^= 0xFF
        segment.write_bytes(bytes(data))
        records, stats = read_wal(tmp_path)
        assert len(records) == 3  # prefix only: nothing after the damage
        assert stats.corrupt_segments == 1

    def test_oversized_length_header_treated_as_corruption(self, tmp_path):
        (segment,) = self._write(tmp_path, count=2)
        data = bytearray(segment.read_bytes())
        struct.pack_into("<I", data, 0, 1 << 30)
        segment.write_bytes(bytes(data))
        records, stats = read_wal(tmp_path)
        assert records == []
        assert stats.corrupt_segments == 1

    def test_corruption_mid_directory_drops_later_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=64) as wal:
            for i in range(20):
                wal.append(f"payload-{i:04d}".encode())
        segments = sorted(tmp_path.glob("wal-*.wal"))
        assert len(segments) >= 3
        middle = segments[1]
        middle.write_bytes(middle.read_bytes()[:-2])
        records, stats = read_wal(tmp_path)
        # Everything after the corrupt segment has no sound ordering
        # relationship to the lost records: prefix semantics drop it all.
        first_counts, _, _ = (len(records), None, None)
        assert first_counts < 20
        assert all(r.seq == i for i, r in enumerate(records))
        assert stats.dropped_bytes >= sum(
            s.stat().st_size for s in segments[2:]
        )


class TestRepairAtOpen:
    """A writer opening a damaged journal cuts it back to the recovered
    prefix, so what it appends next survives the following recovery."""

    def test_records_journaled_after_a_torn_tail_survive_the_next_recovery(
        self, tmp_path
    ):
        with WriteAheadLog(tmp_path) as wal:
            for i in range(5):
                wal.append(f"first-{i}".encode())
        (segment,) = tmp_path.glob("wal-*.wal")
        segment.write_bytes(segment.read_bytes()[:-3])

        reopened = WriteAheadLog(tmp_path)
        assert len(reopened.recovered) == 4
        assert reopened.recovery_stats.repaired_segments == 1
        reopened.append(b"second-0")
        reopened.append(b"second-1")
        reopened.close()  # a crash: no clean drain truncates the journal

        records, stats = read_wal(tmp_path)
        assert [r.payload for r in records] == [
            *(f"first-{i}".encode() for i in range(4)),
            b"second-0",
            b"second-1",
        ]
        assert [r.seq for r in records] == list(range(6))
        assert stats.corrupt_segments == 0

    def test_segments_past_the_damage_are_deleted(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=64) as wal:
            for i in range(20):
                wal.append(f"payload-{i:04d}".encode())
        segments = sorted(tmp_path.glob("wal-*.wal"))
        segments[1].write_bytes(segments[1].read_bytes()[:-2])
        prefix, _ = read_wal(tmp_path)

        reopened = WriteAheadLog(tmp_path)
        reopened.close()
        assert sorted(tmp_path.glob("wal-*.wal")) == segments[:2]
        assert reopened.recovered == prefix
        records, stats = read_wal(tmp_path)
        assert records == prefix
        assert stats.corrupt_segments == 0


class TestRecoveryFuzz:
    """Cut or flip one byte at every offset of the last segment of a
    two-segment journal: recovery never raises, returns exactly the
    records wholly before the damage and counts the damage, and a reopen
    followed by an append recovers that prefix plus the new records."""

    PAYLOADS = [f"record-{i:02d}".encode() for i in range(7)]

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("journal")
        with WriteAheadLog(directory, segment_max_bytes=64) as wal:
            for payload in self.PAYLOADS:
                wal.append(payload)
        segments = sorted(directory.glob("wal-*.wal"))
        assert len(segments) == 2
        last = segments[1].read_bytes()
        # Records in the first segment: the last one's name is its first seq.
        before = int(segments[1].stem.rsplit("-", 1)[1])
        # Byte offset at which each record of the last segment ends.
        ends, offset = [], 0
        while offset < len(last):
            (length,) = struct.unpack_from("<I", last, offset)
            offset += 8 + length
            ends.append(offset)
        return directory, segments[1].name, last, before, ends

    def _damaged(self, journal, tmp_path, data):
        source, name, _, _, _ = journal
        target = tmp_path / "wal"
        shutil.copytree(source, target)
        (target / name).write_bytes(data)
        return target

    def _check(self, directory, expected, dropped_bytes):
        damaged = dropped_bytes > 0
        records, stats = read_wal(directory)
        assert [r.payload for r in records] == self.PAYLOADS[:expected]
        assert stats.corrupt_segments == int(damaged)
        assert stats.dropped_bytes == dropped_bytes
        wal = WriteAheadLog(directory)
        assert wal.recovery_stats.repaired_segments == int(damaged)
        wal.append(b"after-0")
        wal.append(b"after-1")
        wal.close()
        records, stats = read_wal(directory)
        assert [r.payload for r in records] == [
            *self.PAYLOADS[:expected], b"after-0", b"after-1"
        ]
        assert [r.seq for r in records] == list(range(expected + 2))
        assert stats.corrupt_segments == 0

    def test_every_cut(self, journal, tmp_path):
        _, _, last, before, ends = journal
        for cut in range(len(last)):
            case = tmp_path / f"cut{cut}"
            case.mkdir()
            directory = self._damaged(journal, case, last[:cut])
            whole = sum(end <= cut for end in ends)
            self._check(directory, before + whole, cut - [0, *ends][whole])

    def test_every_flip(self, journal, tmp_path):
        _, _, last, before, ends = journal
        for offset in range(len(last)):
            case = tmp_path / f"flip{offset}"
            case.mkdir()
            data = bytearray(last)
            data[offset] ^= 0xFF
            directory = self._damaged(journal, case, bytes(data))
            whole = sum(end <= offset for end in ends)
            self._check(directory, before + whole, len(last) - [0, *ends][whole])


class TestTruncation:
    def test_truncate_all_removes_every_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_max_bytes=64)
        for i in range(20):
            wal.append(f"payload-{i:04d}".encode())
        wal.truncate_all()
        assert list(tmp_path.glob("wal-*.wal")) == []
        records, _ = read_wal(tmp_path)
        assert records == []

    def test_an_empty_leftover_segment_is_reopened_once(self, tmp_path):
        """A crash between opening a segment and writing to it leaves an
        empty file named for the next seq; the reopened log appends to it
        and counts it once."""
        with WriteAheadLog(tmp_path) as wal:
            wal.append(b"first")
        (tmp_path / "wal-000000000001.wal").touch()
        wal = WriteAheadLog(tmp_path)
        assert wal.append(b"second") == 1
        wal.close()
        assert wal.segment_count() == 2
        wal.truncate_all()
        assert list(tmp_path.glob("wal-*.wal")) == []


class TestIngestJournal:
    def test_sentence_roundtrip(self, tmp_path):
        journal = IngestJournal(tmp_path)
        journal.append(1000, "!AIVDM,1,1,,A,payload,0*5D")
        journal.append(1001, "!AIVDM,sentence\twith-tab-free-payload")
        journal.sync()
        journal.close()
        recovered, stats = read_journal(tmp_path)
        assert recovered[0] == (1000, "!AIVDM,1,1,,A,payload,0*5D")
        assert recovered[1][0] == 1001
        assert stats.records == 2

    def test_restart_recovers_then_clean_drain_truncates(self, tmp_path):
        journal = IngestJournal(tmp_path)
        for i in range(8):
            journal.append(100 + i, f"sentence-{i}")
        journal.close()

        reopened = IngestJournal(tmp_path)
        assert reopened.recovered == [
            (100 + i, f"sentence-{i}") for i in range(8)
        ]
        reopened.append(200, "post-recovery")
        reopened.truncate_all()
        assert read_journal(tmp_path)[0] == []

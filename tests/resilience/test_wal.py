"""Ingest journal: framing, recovery, repair, truncation, old format."""

import os
import struct

import pytest

from repro.resilience.wal import (
    FSYNC_POLICIES,
    JOURNAL_NAME,
    IngestJournal,
    read_journal,
)


def _write(directory, records):
    journal = IngestJournal(directory)
    for record in records:
        journal.append(*record)
    journal.close()  # a crash: no clean drain truncates the journal
    return directory / JOURNAL_NAME


def _ends(data: bytes) -> list[int]:
    """The byte offset at which each framed record of ``data`` ends."""
    ends, offset = [], 0
    while offset < len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 8 + length
        ends.append(offset)
    return ends


class TestFraming:
    def test_roundtrip_preserves_payloads_and_order(self, tmp_path):
        records = [(1000 + i, f"record-{i}") for i in range(50)]
        _write(tmp_path, records)
        recovered, stats = read_journal(tmp_path)
        assert recovered == records
        assert stats.records == 50
        assert stats.dropped_bytes == 0

    def test_empty_directory_recovers_nothing(self, tmp_path):
        recovered, stats = read_journal(tmp_path / "missing")
        assert recovered == []
        assert stats.records == 0

    def test_binary_payloads_survive(self, tmp_path):
        blob = "".join(map(chr, range(1, 256))) * 17 + "\t\n☃"
        _write(tmp_path, [(7, blob), (8, "")])
        recovered, _ = read_journal(tmp_path)
        assert recovered == [(7, blob), (8, "")]

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            IngestJournal(tmp_path, fsync="sometimes")

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_fsync_policy_decides_when_records_reach_the_disk(
        self, policy, tmp_path, monkeypatch
    ):
        """``os.fsync`` calls after three appends, a sync and a close:
        ``always`` on every append, ``batch`` only at sync and close,
        ``never`` not at all; every policy recovers every record."""
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
        )
        records = [(1000 + i, f"record-{i}") for i in range(3)]
        journal = IngestJournal(tmp_path, fsync=policy)
        counts = []
        for record in records:
            journal.append(*record)
        counts.append(len(fsyncs))
        journal.sync()
        counts.append(len(fsyncs))
        journal.close()
        counts.append(len(fsyncs))
        assert counts == {
            "always": [3, 4, 5],
            "batch": [0, 1, 2],
            "never": [0, 0, 0],
        }[policy]
        reopened = IngestJournal(tmp_path, fsync=policy)
        reopened.close()
        assert reopened.recovered == records

    def test_append_after_close_refused(self, tmp_path):
        journal = IngestJournal(tmp_path)
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.append(1, "late")


class TestReopen:
    def test_reopen_appends_after_recovered_records(self, tmp_path):
        path = _write(tmp_path, [(i, f"first-{i}") for i in range(5)])
        reopened = IngestJournal(tmp_path)
        assert reopened.recovered == [(i, f"first-{i}") for i in range(5)]
        assert not reopened.recovery_stats.repaired
        reopened.append(9, "second-0")
        reopened.close()
        assert list(tmp_path.iterdir()) == [path]
        recovered, _ = read_journal(tmp_path)
        assert recovered == [
            *((i, f"first-{i}") for i in range(5)), (9, "second-0")
        ]


class TestTruncatedTailRecovery:
    RECORDS = [(i, f"record-{i}") for i in range(10)]

    def test_truncated_tail_yields_clean_prefix(self, tmp_path):
        path = _write(tmp_path, self.RECORDS)
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # torn final record
        recovered, stats = read_journal(tmp_path)
        assert recovered == self.RECORDS[:9]
        assert stats.dropped_bytes == len(data) - 3 - _ends(data)[8]

    def test_corrupt_crc_stops_replay_at_corruption(self, tmp_path):
        path = _write(tmp_path, self.RECORDS)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the 4th record (after 3 clean frames).
        offset = _ends(bytes(data))[2]
        data[offset + 8] ^= 0xFF
        path.write_bytes(bytes(data))
        recovered, stats = read_journal(tmp_path)
        assert recovered == self.RECORDS[:3]  # nothing after the damage
        assert stats.dropped_bytes == len(data) - offset

    def test_oversized_length_header_treated_as_corruption(self, tmp_path):
        path = _write(tmp_path, self.RECORDS[:2])
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 0, 1 << 30)
        path.write_bytes(bytes(data))
        recovered, stats = read_journal(tmp_path)
        assert recovered == []
        assert stats.dropped_bytes == len(data)


class TestRepairAtOpen:
    """A writer opening a damaged journal cuts it back to the recovered
    prefix, so what it appends next survives the following recovery."""

    def test_records_journaled_after_a_torn_tail_survive_the_next_recovery(
        self, tmp_path
    ):
        path = _write(tmp_path, [(i, f"first-{i}") for i in range(5)])
        path.write_bytes(path.read_bytes()[:-3])

        reopened = IngestJournal(tmp_path)
        assert len(reopened.recovered) == 4
        assert reopened.recovery_stats.repaired
        assert reopened.recovery_stats.dropped_bytes > 0
        reopened.append(10, "second-0")
        reopened.append(11, "second-1")
        reopened.close()

        recovered, stats = read_journal(tmp_path)
        assert recovered == [
            *((i, f"first-{i}") for i in range(4)),
            (10, "second-0"),
            (11, "second-1"),
        ]
        assert stats.dropped_bytes == 0


class TestRecoveryFuzz:
    """Cut or flip one byte at every offset of the journal file: recovery
    never raises, returns exactly the records wholly before the damage
    and counts the bytes after them, and a reopen followed by two
    appends repairs the file and recovers that prefix plus both."""

    RECORDS = [(100 + i, f"record-{i:02d}") for i in range(7)]
    AFTER = [(200, "after-0"), (201, "after-1")]

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        data = _write(tmp_path_factory.mktemp("journal"), self.RECORDS).read_bytes()
        return data, _ends(data)

    def _check(self, directory, data, ends, damage_at):
        """``damage_at``: the first damaged byte (a cut or a flip)."""
        (directory / JOURNAL_NAME).write_bytes(data)
        whole = sum(end <= damage_at for end in ends)
        dropped = len(data) - [0, *ends][whole]
        recovered, stats = read_journal(directory)
        assert recovered == self.RECORDS[:whole]
        assert stats.dropped_bytes == dropped
        journal = IngestJournal(directory)
        assert journal.recovered == recovered
        assert journal.recovery_stats.repaired == (dropped > 0)
        for record in self.AFTER:
            journal.append(*record)
        journal.close()
        recovered, stats = read_journal(directory)
        assert recovered == [*self.RECORDS[:whole], *self.AFTER]
        assert stats.dropped_bytes == 0

    def test_every_cut(self, journal, tmp_path):
        data, ends = journal
        for cut in range(len(data)):
            case = tmp_path / f"cut{cut}"
            case.mkdir()
            self._check(case, data[:cut], ends, cut)

    def test_every_flip(self, journal, tmp_path):
        data, ends = journal
        for offset in range(len(data)):
            case = tmp_path / f"flip{offset}"
            case.mkdir()
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            self._check(case, bytes(flipped), ends, offset)


class TestTruncation:
    def test_truncate_all_removes_the_journal(self, tmp_path):
        journal = IngestJournal(tmp_path)
        for i in range(20):
            journal.append(i, f"payload-{i:04d}")
        journal.truncate_all()
        assert list(tmp_path.iterdir()) == []
        assert read_journal(tmp_path)[0] == []
        with pytest.raises(ValueError, match="closed"):
            journal.append(20, "after the drain")


class TestOldFormat:
    def test_old_format_segments_are_refused(self, tmp_path):
        """A directory of pre-single-file ``wal-*.wal`` segments is
        refused by name, never silently journaled beside."""
        (tmp_path / "wal-000000000000.wal").write_bytes(b"old")
        with pytest.raises(ValueError, match="wal-000000000000.wal"):
            IngestJournal(tmp_path)
        assert not (tmp_path / JOURNAL_NAME).exists()


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
        _write(tmp_path, [(100 + i, f"sentence-{i}") for i in range(8)])

        reopened = IngestJournal(tmp_path)
        assert reopened.recovered == [
            (100 + i, f"sentence-{i}") for i in range(8)
        ]
        reopened.append(200, "post-recovery")
        reopened.truncate_all()
        assert read_journal(tmp_path)[0] == []

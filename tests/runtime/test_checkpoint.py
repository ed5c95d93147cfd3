"""Checkpoint durability and the worker snapshot/restore contract."""

from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline.config import SystemConfig
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.worker import ShardWorker
from repro.tracking import WindowSpec
from tests.parity import canonical_points


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, cursor=42, state={"value": [1, 2, 3]})
        snapshot = store.load(0)
        assert snapshot is not None
        assert snapshot.shard_id == 0
        assert snapshot.cursor == 42
        assert snapshot.state == {"value": [1, 2, 3]}

    def test_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load(3) is None

    def test_corrupt_file_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path_for(0).write_bytes(b"\x80\x05 definitely not a pickle")
        assert store.load(0) is None

    def test_truncated_file_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, cursor=7, state={"x": list(range(1000))})
        payload = store.path_for(0).read_bytes()
        store.path_for(0).write_bytes(payload[: len(payload) // 2])
        assert store.load(0) is None

    def test_wrong_shard_id_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, cursor=7, state={})
        store.path_for(1).rename(store.path_for(2))
        assert store.load(2) is None

    def test_save_overwrites_atomically(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, cursor=1, state={"generation": 1})
        store.save(0, cursor=2, state={"generation": 2})
        assert store.load(0).state == {"generation": 2}
        # No temp-file litter after successful saves.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, 1, {})
        store.save(1, 1, {})
        store.clear(0)
        assert store.load(0) is None and store.load(1) is not None
        store.clear()
        assert store.load(1) is None


class TestWorkerSnapshotRestore:
    def _config(self):
        return SystemConfig(window=WindowSpec.of_minutes(120, 30))

    def _routed_slides(self, world, small_fleet):
        arrivals = [
            TimedArrival(p.timestamp, p) for p in small_fleet["stream"]
        ]
        slides = []
        for query_time, batch in StreamReplayer(arrivals, 1800).batches():
            slides.append(
                (query_time, [(i, p) for i, p in enumerate(batch)])
            )
        return slides

    def test_restored_worker_continues_identically(
        self, world, small_fleet, tmp_path
    ):
        """Snapshot after slide k, restore into a fresh worker, and the
        remaining slides must produce byte-identical outputs."""
        slides = self._routed_slides(world, small_fleet)
        split = len(slides) // 2

        def outputs(worker, subset):
            out = []
            for query_time, indexed in subset:
                reply = worker.track(query_time, indexed)
                out.append(
                    (
                        [repr(e) for _, e in reply["events"]],
                        canonical_points(reply["fresh"]),
                        canonical_points(reply["expired"]),
                    )
                )
            return out

        baseline = ShardWorker(0, 1, world, small_fleet["specs"], self._config())
        outputs(baseline, slides[:split])
        expected = outputs(baseline, slides[split:])

        crashed = ShardWorker(0, 1, world, small_fleet["specs"], self._config())
        outputs(crashed, slides[:split])
        store = CheckpointStore(tmp_path)
        store.save(0, cursor=split - 1, state=crashed.snapshot())
        del crashed

        revived = ShardWorker(0, 1, world, small_fleet["specs"], self._config())
        snapshot = store.load(0)
        revived.restore(snapshot.state, snapshot.cursor)
        assert revived.cursor == split - 1
        assert outputs(revived, slides[split:]) == expected


class TestStreamResume:
    def test_start_after_skips_replayed_slides(self, small_fleet):
        arrivals = [
            TimedArrival(p.timestamp, p) for p in small_fleet["stream"]
        ]
        replayer = StreamReplayer(arrivals, 1800)
        full = list(replayer.batches())
        assert len(full) > 2
        cursor = full[2][0]
        resumed = list(replayer.batches(start_after=cursor))
        assert resumed == full[3:]

    def test_start_after_before_stream_is_noop(self, small_fleet):
        arrivals = [
            TimedArrival(p.timestamp, p) for p in small_fleet["stream"]
        ]
        replayer = StreamReplayer(arrivals, 1800)
        assert list(replayer.batches(start_after=-1)) == list(
            replayer.batches()
        )

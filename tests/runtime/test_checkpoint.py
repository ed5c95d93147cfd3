"""Checkpoint durability and the worker snapshot/restore contract."""

import queue

import pytest

from repro.ais.stream import StreamReplayer, TimedArrival
from repro.maritime.pairwise.monitor import PairwiseMonitor
from repro.pipeline.config import SystemConfig
from repro.rtec.working_memory import WorkingMemory
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.worker import ShardWorker, worker_main
from repro.tracking import WindowSpec
from repro.tracking.columnar import ColumnarTracker
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
        # A recognition window of one slide: every interval still open at
        # a step is carried only by the engine's persisted open intervals.
        return SystemConfig(
            window=WindowSpec.of_minutes(120, 30),
            pairwise=True,
            recognition_window_seconds=1800,
        )

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
        remaining slides must produce byte-identical tracking outputs and
        identical alerts — including the intervals only the checkpointed
        RTEC persistence keeps open."""
        slides = self._routed_slides(world, small_fleet)
        # After the second slide two encounters are open in this fleet.
        split = 2
        # The parent's pairwise monitor, run once: its facts are the same
        # for every worker because the tracked events are.
        monitor = PairwiseMonitor(world, self._config().pairwise_config)
        facts: dict[int, list] = {}

        def outputs(worker, subset):
            out = []
            for query_time, indexed in subset:
                reply = worker.track(query_time, indexed)
                events = [e for _, e in reply["events"]]
                if query_time not in facts:
                    facts[query_time] = monitor.observe(events, query_time)
                recognized = worker.recognize(query_time, events, facts[query_time])
                out.append(
                    (
                        [repr(e) for _, e in reply["events"]],
                        canonical_points(reply["fresh"]),
                        canonical_points(reply["expired"]),
                        recognized["alerts"],
                        recognized["recognized"],
                    )
                )
            return out

        baseline = ShardWorker(0, 1, world, small_fleet["specs"], self._config())
        outputs(baseline, slides[:split])
        expected = outputs(baseline, slides[split:])

        crashed = ShardWorker(0, 1, world, small_fleet["specs"], self._config())
        outputs(crashed, slides[:split])
        persisted = crashed.recognizer.engine.snapshot()["persisted"]
        assert persisted.get("stopped") or persisted.get("encounter")
        store = CheckpointStore(tmp_path)
        store.save(0, cursor=split - 1, state=crashed.snapshot())
        del crashed

        revived = ShardWorker(0, 1, world, small_fleet["specs"], self._config())
        snapshot = store.load(0)
        revived.restore(snapshot.state, snapshot.cursor)
        assert revived.cursor == split - 1
        assert outputs(revived, slides[split:]) == expected
        assert any(alerts for *_, alerts, _ in expected)
        assert (
            revived.recognizer.engine.snapshot()["persisted"]
            == baseline.recognizer.engine.snapshot()["persisted"]
        )

    def test_state_of_another_layout_starts_fresh(self, world, small_fleet, tmp_path):
        """A checkpoint written before the engine had a snapshot (working
        memory under ``memory``, open intervals under ``persisted``) is
        unusable: ``restore`` refuses it without touching the worker, and
        ``worker_main`` starts fresh as for an unreadable file."""
        specs = small_fleet["specs"]
        worker = ShardWorker(0, 1, world, specs, self._config())
        tracker = worker.tracker
        engine_memory = worker.recognizer.engine.working_memory
        old_state = {
            "tracker": ColumnarTracker(self._config().tracking),
            "compressor": worker.compressor,
            "memory": WorkingMemory(),
            "persisted": {"stopped": {(1,): 100}},
            "tracks_applied": 3,
            "last_reply": None,
        }
        with pytest.raises(ValueError):
            worker.restore(old_state, cursor=5)
        assert worker.tracker is tracker and worker.cursor == -1
        assert worker.recognizer.engine.working_memory is engine_memory

        def cursor_reply(state):
            store = CheckpointStore(tmp_path)
            store.save(0, cursor=5, state=state)
            commands, replies = queue.Queue(), queue.Queue()
            commands.put(("cursor", 0))
            commands.put(("stop", 1))
            worker_main(
                0, 1, world, specs, self._config(), str(tmp_path), 0,
                commands, replies,
            )
            return replies.get_nowait()[2]

        assert cursor_reply(old_state) == {"cursor": -1}
        # The current layout restores: command 0 is already applied.
        assert cursor_reply(worker.snapshot()) == {"ignored": True}


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

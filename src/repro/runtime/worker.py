"""The shard worker: one process, one tracking shard, one recognition band.

Worker *i* owns the Mobility Tracker
(:class:`~repro.tracking.columnar.ColumnarTracker`) and the
:class:`~repro.tracking.compressor.Compressor` for the vessels hashed to
shard *i*, plus the :class:`~repro.maritime.recognizer.MaritimeRecognizer`
for longitude band *i* of the partitioned world.  It is driven over a
bounded command queue in strict sequence-number order and answers every
command on its reply queue.

Recovery protocol (see :mod:`repro.runtime.checkpoint`):

* every applied command advances the worker's ``cursor``;
* after every ``checkpoint_every``-th ``track`` command the worker pickles
  its full state *after replying*, so a crash between reply and checkpoint
  merely replays deterministic commands whose outputs the supervisor
  already delivered (and will discard again);
* commands with ``seq <= cursor`` (replays of work already captured by the
  restored checkpoint) are acknowledged as ``ignored`` without being
  re-applied;
* a checkpoint whose engine state has another layout (written before
  :data:`~repro.rtec.engine.SNAPSHOT_FORMAT` last changed) is unusable, like
  an unreadable file: the worker starts fresh.

The worker never touches the process-global metrics registry — it reports
raw seconds in its replies and the parent records them under per-shard
instrument names.
"""

import os
import time

from repro.maritime.partition import partition_world
from repro.maritime.recognizer import MaritimeRecognizer
from repro.pipeline.config import SystemConfig
from repro.runtime.checkpoint import CheckpointStore
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import WorldModel
from repro.tracking.columnar import ColumnarTracker
from repro.tracking.compressor import Compressor

#: Exit code of a worker killed through the failure-injection hook.
POISON_EXIT_CODE = 17


class ShardWorker:
    """The in-process half of a worker; drives all shard-local state.

    Kept separate from the queue loop so tests can exercise snapshot /
    restore and command application synchronously, without processes.
    """

    def __init__(
        self,
        shard_id: int,
        shards: int,
        world: WorldModel,
        specs: dict[int, VesselSpec],
        config: SystemConfig,
    ):
        self.shard_id = shard_id
        self.shards = shards
        self.world = world
        self.specs = specs
        self.config = config
        self.tracker = ColumnarTracker(config.tracking)
        self.compressor = Compressor(config.window)
        self.band = partition_world(world, shards)[shard_id]
        self.recognizer = MaritimeRecognizer(
            self.band,
            specs,
            window_seconds=config.effective_recognition_window,
            config=config.maritime,
            pairwise=config.pairwise,
            pairwise_config=config.pairwise_config,
            ce_scope=config.ce_scope,
        )
        #: Sequence number of the last applied command.
        self.cursor = -1
        #: Number of ``track`` commands applied (drives checkpoint cadence).
        self.tracks_applied = 0
        #: ``(seq, payload)`` of the last applied command.  Checkpointed,
        #: because the protocol is lockstep: at most one applied command
        #: can be undelivered when the process dies, and it is this one —
        #: a restored worker re-emits it instead of acknowledging
        #: ``ignored``, so no output is ever lost.
        self.last_reply: tuple[int, dict] | None = None

    # -- command handlers -------------------------------------------------

    def track(self, query_time: int, indexed_positions: list) -> dict:
        """Run one slide of tracking + compression over a sub-batch.

        ``indexed_positions`` carries ``(global_index, position)`` pairs;
        every emitted movement event is tagged ``(global_index, k)`` so the
        parent can splice the per-shard outputs back into the exact event
        order a single-process tracker would have produced.
        """
        started = time.perf_counter()
        tagged_events = self.tracker.process_batch_tagged(indexed_positions)
        events = [event for _, event in tagged_events]
        fresh, expired = self.compressor.slide(
            events, query_time, raw_position_count=len(indexed_positions)
        )
        return {
            "events": tagged_events,
            "fresh": fresh,
            "expired": expired,
            "vessels": self.tracker.vessel_count(),
            "seconds": time.perf_counter() - started,
        }

    def recognize(
        self, query_time: int, events: list, facts: list = ()
    ) -> dict:
        """Ingest one slide's routed MEs (and, in pairwise mode, this
        band's routed pair facts) and step the band's recognition."""
        started = time.perf_counter()
        if facts:
            self.recognizer.ingest_facts(facts, arrival_time=query_time)
        ingested = self.recognizer.ingest(events, arrival_time=query_time)
        result = self.recognizer.step(query_time)
        return {
            "alerts": self.recognizer.alerts(result),
            "recognized": result.complex_event_count(),
            "ingested": ingested,
            "step_seconds": self.recognizer.last_step_seconds,
            "seconds": time.perf_counter() - started,
        }

    def finalize_track(self, query_time: int) -> dict:
        """End-of-stream: close long-lasting events, drain the window."""
        started = time.perf_counter()
        events = self.tracker.finalize()
        fresh, expired = self.compressor.slide(events, query_time)
        remaining = self.compressor.synopsis()
        return {
            "events": events,
            "fresh": fresh,
            "expired": expired,
            "remaining": remaining,
            "vessels": self.tracker.vessel_count(),
            "seconds": time.perf_counter() - started,
        }

    def synopsis(self, mmsi: int | None = None) -> dict:
        """The shard's current in-window critical points."""
        return {"points": self.compressor.synopsis(mmsi)}

    # -- checkpointing ----------------------------------------------------

    def snapshot(self) -> dict:
        """Everything needed to resurrect this worker after a crash."""
        return {
            "tracker": self.tracker,
            "compressor": self.compressor,
            "rtec": self.recognizer.engine.snapshot(),
            "tracks_applied": self.tracks_applied,
            "last_reply": self.last_reply,
        }

    def restore(self, state: dict, cursor: int) -> None:
        """Adopt a snapshot; rules/engines stay freshly constructed.

        The RTEC rule set contains closures and is rebuilt by
        ``__init__``; only the engine's snapshot (windowed working memory
        and open-interval persistence) carries over.  A snapshot whose
        engine state has another layout (e.g. written by an older version)
        raises ``ValueError`` and leaves the worker untouched.
        """
        engine = self.recognizer.engine
        engine.restore(state.get("rtec", {}))
        self.tracker = state["tracker"]
        self.compressor = state["compressor"]
        self.recognizer.adapter.memory = engine.working_memory
        self.tracks_applied = state["tracks_applied"]
        self.last_reply = state.get("last_reply")
        self.cursor = cursor


def worker_main(
    shard_id: int,
    shards: int,
    world: WorldModel,
    specs: dict[int, VesselSpec],
    config: SystemConfig,
    checkpoint_dir: str | None,
    checkpoint_every: int,
    command_queue,
    reply_queue,
) -> None:
    """Queue-driven worker loop; the target of the supervisor's processes."""
    worker = ShardWorker(shard_id, shards, world, specs, config)
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    if store is not None:
        snapshot = store.load(shard_id)
        if snapshot is not None:
            try:
                worker.restore(snapshot.state, snapshot.cursor)
            except ValueError:
                # Another state layout: unusable, like an unreadable file.
                pass
    die_on_next_track = False

    while True:
        command = command_queue.get()
        kind, seq = command[0], command[1]

        if kind == "stop":
            reply_queue.put((shard_id, seq, {"stopped": True}))
            break
        if kind == "poison":
            die_on_next_track = True
            reply_queue.put((shard_id, seq, {"poisoned": True}))
            continue
        if kind == "track" and die_on_next_track:
            # Simulated hard crash mid-slide: the command is consumed but
            # neither applied nor acknowledged.
            os._exit(POISON_EXIT_CODE)

        if seq <= worker.cursor:
            # Replay of work the restored checkpoint already contains.
            if worker.last_reply is not None and worker.last_reply[0] == seq:
                # ...except possibly the very last applied command, whose
                # reply may have been lost with the dying process.
                reply_queue.put((shard_id, seq, worker.last_reply[1]))
            else:
                reply_queue.put((shard_id, seq, {"ignored": True}))
            continue

        if kind == "track":
            payload = worker.track(command[2], command[3])
            worker.tracks_applied += 1
        elif kind == "recognize":
            payload = worker.recognize(
                command[2],
                command[3],
                command[4] if len(command) > 4 else (),
            )
        elif kind == "finalize_track":
            payload = worker.finalize_track(command[2])
        elif kind == "synopsis":
            payload = worker.synopsis(command[2])
        elif kind == "cursor":
            payload = {"cursor": worker.cursor}
        else:
            payload = {"error": f"unknown command {kind!r}"}
        worker.cursor = seq
        worker.last_reply = (seq, payload)

        checkpoint_due = (
            store is not None
            and kind == "track"
            and checkpoint_every > 0
            and worker.tracks_applied % checkpoint_every == 0
        )
        reply_queue.put((shard_id, seq, payload))
        if checkpoint_due:
            # Checkpoint *after* replying: a crash in between replays
            # deterministic commands whose outputs were already delivered
            # (and are discarded as duplicates), never losing output.
            store.save(shard_id, worker.cursor, worker.snapshot())
            reply_queue.put((shard_id, seq, {"checkpoint_cursor": worker.cursor}))

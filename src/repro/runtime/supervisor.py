"""Worker lifecycle: spawning, crash detection, checkpoint-based restart.

The :class:`Supervisor` owns one OS process per shard, each driven in
lockstep over bounded queues.  It implements exactly-once command
application on top of at-least-once delivery:

* every command gets a per-worker monotonically increasing sequence number
  and is appended to a replay *history* before being sent;
* a worker acknowledges each checkpoint it writes; the supervisor then
  trims the history up to the checkpointed cursor;
* when a worker dies (detected while awaiting its reply), the supervisor
  spawns a replacement — which restores the latest checkpoint on startup —
  and replays the retained history.  The worker ignores commands at or
  below its restored cursor; the supervisor discards replies for commands
  it already delivered.  Net effect: no lost and no duplicated outputs.

Backpressure is real, not simulated: command queues are bounded, a full
queue blocks the producer, and every stall is counted on the metrics
registry (``runtime.backpressure_stalls``) along with sampled queue depths
and restarts.
"""

import multiprocessing as mp
import queue as queue_module
import time
from dataclasses import dataclass, field

from repro import obs
from repro.resilience.faults import fault_point
from repro.resilience.retry import BackoffPolicy
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.worker import worker_main

#: Depth of each worker's bounded command and reply queues; a full
#: command queue blocks the producer, and every stall is counted.
QUEUE_CAPACITY = 16
#: Resurrections of one shard before the supervisor gives up with
#: :class:`WorkerUnrecoverable`.
MAX_RESTARTS = 5
#: How long a live worker may stay silent (or its queue stay full) before
#: the wait is abandoned with ``TimeoutError``.
REPLY_TIMEOUT_SECONDS = 120.0
#: Respawn delay grows with consecutive restarts of the same shard: a
#: worker that dies instantly every time must not busy-loop the
#: supervisor.  Deterministic (no jitter) like every retry schedule in
#: this tree.
RESTART_BACKOFF = BackoffPolicy(
    initial_seconds=0.02, multiplier=2.0, max_seconds=1.0,
    max_attempts=MAX_RESTARTS + 1,
)


class WorkerCrash(RuntimeError):
    """A worker process died before answering."""


class WorkerUnrecoverable(RuntimeError):
    """A worker kept dying past the restart budget."""


@dataclass
class _WorkerHandle:
    """Supervisor-side bookkeeping for one shard worker."""

    shard_id: int
    process: mp.Process | None = None
    command_queue: object = None
    reply_queue: object = None
    next_seq: int = 0
    #: Last sequence number whose reply was handed to the caller.
    delivered: int = -1
    #: Commands since the last acknowledged checkpoint, for replay.
    history: list = field(default_factory=list)
    restarts: int = 0


class Supervisor:
    """Spawn, drive, and resurrect the shard workers."""

    def __init__(
        self,
        worker_args: tuple,
        shards: int,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 4,
    ):
        self._worker_args = worker_args
        self.shards = shards
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.max_restarts = MAX_RESTARTS
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._handles = [_WorkerHandle(i) for i in range(shards)]
        self._started = False
        if checkpoint_dir is not None:
            # A fresh run must not resurrect a previous run's state.
            CheckpointStore(checkpoint_dir).clear()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker process."""
        if self._started:
            return
        for handle in self._handles:
            self._spawn(handle)
        self._started = True

    def stop(self) -> None:
        """Ask workers to exit; terminate stragglers."""
        if not self._started:
            return
        for handle in self._handles:
            process = handle.process
            if process is None or not process.is_alive():
                continue
            try:
                handle.command_queue.put(("stop", handle.next_seq), timeout=1.0)
            except (queue_module.Full, ValueError):
                pass
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        self._started = False

    def restart_count(self) -> int:
        """Total restarts across all workers so far."""
        return sum(handle.restarts for handle in self._handles)

    def terminate_workers(self) -> int:
        """Hard-kill every live worker (the slide watchdog's lever).

        A wedged worker holds the whole lockstep slide hostage; killing it
        converts the silent stall into a :class:`WorkerCrash` on the next
        reply wait, which the ordinary checkpoint-recovery path already
        handles.  Returns the number of processes killed.
        """
        killed = 0
        for handle in self._handles:
            process = handle.process
            if process is not None and process.is_alive():
                process.kill()
                killed += 1
        if killed:
            obs.count("runtime.watchdog_kills", killed)
        return killed

    # -- request/reply ----------------------------------------------------

    def request_all(self, kind: str, payloads: list[tuple]) -> list[dict]:
        """Issue one command per worker concurrently; gather all replies.

        ``payloads[i]`` is the argument tuple appended to worker *i*'s
        command; replies come back indexed by shard.  Sends are pipelined
        (all commands go out before any reply is awaited) so workers
        genuinely run in parallel.
        """
        spec = fault_point("runtime.worker")
        if spec is not None and spec.kind == "kill":
            shard_id = int(spec.arg) % self.shards
            handle = self._handles[shard_id]
            if handle.process is not None and handle.process.is_alive():
                handle.process.kill()
        seqs = [
            self._send(handle, (kind, *payloads[handle.shard_id]))
            for handle in self._handles
        ]
        return [
            self._collect(handle, seq)
            for handle, seq in zip(self._handles, seqs)
        ]

    def inject_failure(self, shard_id: int) -> None:
        """Failure-injection hook: the worker hard-exits (``os._exit``)
        while consuming its next ``track`` command — mid-slide, with the
        command neither applied nor acknowledged."""
        handle = self._handles[shard_id]
        seq = handle.next_seq
        handle.next_seq += 1
        # Deliberately NOT recorded in history: a replayed poison pill
        # would kill the replacement worker too.
        self._put(handle, ("poison", seq))

    # -- internals --------------------------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        """(Re)create one worker with fresh queues.

        Fresh queues matter on restart: the dead worker's command queue
        may still hold commands it never consumed, which must not leak
        into the replacement's replay sequence.
        """
        handle.command_queue = self._ctx.Queue(maxsize=QUEUE_CAPACITY)
        handle.reply_queue = self._ctx.Queue(maxsize=QUEUE_CAPACITY)
        handle.process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.shard_id,
                self.shards,
                *self._worker_args,
                self.checkpoint_dir,
                self.checkpoint_every,
                handle.command_queue,
                handle.reply_queue,
            ),
            daemon=True,
            name=f"repro-shard-{handle.shard_id}",
        )
        handle.process.start()

    def _send(self, handle: _WorkerHandle, command: tuple) -> int:
        """Assign a sequence number, record for replay, enqueue."""
        seq = handle.next_seq
        handle.next_seq += 1
        command = (command[0], seq, *command[1:])
        handle.history.append(command)
        self._put(handle, command)
        return seq

    def _put(self, handle: _WorkerHandle, command: tuple) -> None:
        """Bounded enqueue with stall accounting and liveness checks."""
        registry = obs.get_registry()
        registry.set_gauge(
            f"runtime.shard.{handle.shard_id}.queue_depth",
            _safe_qsize(handle.command_queue),
        )
        try:
            handle.command_queue.put_nowait(command)
            return
        except queue_module.Full:
            registry.inc("runtime.backpressure_stalls")
            registry.inc(f"runtime.shard.{handle.shard_id}.backpressure_stalls")
        deadline = time.monotonic() + REPLY_TIMEOUT_SECONDS
        while True:
            try:
                handle.command_queue.put(command, timeout=0.2)
                return
            except queue_module.Full:
                if not handle.process.is_alive():
                    # The consumer is gone; recovery re-sends via fresh
                    # queues, so the undelivered command is not lost.
                    return
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"shard {handle.shard_id} command queue stuck full"
                    ) from None

    def _collect(self, handle: _WorkerHandle, want_seq: int) -> dict:
        """Await the reply for ``want_seq``, recovering from crashes."""
        try:
            payload = self._await_reply(handle, want_seq)
        except WorkerCrash:
            payload = self._recover(handle, want_seq)
        handle.delivered = max(handle.delivered, want_seq)
        return payload

    def _await_reply(
        self, handle: _WorkerHandle, want_seq: int, accept_ignored: bool = False
    ) -> dict:
        """The reply to ``want_seq``; during a replay an ``ignored``
        acknowledgement (the checkpoint already covers it) counts too."""
        deadline = time.monotonic() + REPLY_TIMEOUT_SECONDS
        while True:
            try:
                _, seq, payload = handle.reply_queue.get(timeout=0.2)
            except queue_module.Empty:
                if not handle.process.is_alive():
                    raise WorkerCrash(
                        f"shard {handle.shard_id} died "
                        f"(exit code {handle.process.exitcode})"
                    ) from None
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"shard {handle.shard_id} did not answer seq {want_seq}"
                    ) from None
                continue
            if "checkpoint_cursor" in payload:
                self._trim_history(handle, payload["checkpoint_cursor"])
                continue
            if seq == want_seq and (
                accept_ignored or not payload.get("ignored")
            ):
                return payload
            # Duplicate of an already-delivered command, or a reply to a
            # fire-and-forget command (poison): discard.

    def _recover(self, handle: _WorkerHandle, want_seq: int) -> dict:
        """Respawn a dead worker and replay its history; exactly-once.

        The replacement restores the latest checkpoint on startup and
        ignores replayed commands its checkpoint already covers; replies
        for commands delivered before the crash are discarded here.  The
        reply for ``want_seq`` — the command in flight when the worker
        died — is captured and returned.
        """
        registry = obs.get_registry()
        while True:
            if handle.restarts >= self.max_restarts:
                raise WorkerUnrecoverable(
                    f"shard {handle.shard_id} exceeded "
                    f"{self.max_restarts} restarts"
                )
            handle.restarts += 1
            registry.inc("runtime.restarts")
            registry.inc(f"runtime.shard.{handle.shard_id}.restarts")
            delay = RESTART_BACKOFF.delay_for(
                min(handle.restarts, RESTART_BACKOFF.max_attempts)
            )
            if delay:
                obs.observe("runtime.restart_backoff_seconds", delay)
                time.sleep(delay)
            if handle.process is not None:
                handle.process.join(timeout=2.0)
            self._spawn(handle)
            try:
                return self._replay(handle, want_seq)
            except WorkerCrash:
                continue

    def _replay(self, handle: _WorkerHandle, want_seq: int) -> dict:
        wanted: dict | None = None
        for command in list(handle.history):
            self._put(handle, command)
            payload = self._await_reply(
                handle, command[1], accept_ignored=True
            )
            if command[1] == want_seq and not payload.get("ignored"):
                wanted = payload
        if wanted is None:
            raise WorkerCrash(
                f"shard {handle.shard_id} replay never answered seq {want_seq}"
            )
        return wanted

    def _trim_history(self, handle: _WorkerHandle, cursor: int) -> None:
        handle.history = [
            command for command in handle.history if command[1] > cursor
        ]


def _safe_qsize(q) -> int:
    try:
        return q.qsize()
    except (NotImplementedError, OSError):
        return 0

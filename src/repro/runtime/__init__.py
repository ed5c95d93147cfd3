"""repro.runtime — sharded, process-parallel execution with supervision.

The paper parallelizes CE recognition by splitting the surveillance area
across processors (Section 5.2); :mod:`repro.maritime.partition` only
*simulates* that split.  This package executes it: real worker processes,
each owning a MMSI-hashed tracking/compression shard and a longitude-band
recognition engine, driven over bounded queues with backpressure, watched
by a supervisor that restarts crashed workers from atomic checkpoints and
replays the delta — with outputs guaranteed identical to the
single-process pipeline for any shard count.

Entry point: :func:`build_system`, which returns a
:class:`ParallelSurveillanceSystem` — a
:class:`~repro.pipeline.system.SurveillanceSystem` whose stage operations
run on the workers — when asked for more than one shard; see docs/RUNTIME.md
for topology, queue semantics, checkpoint format and crash-recovery
guarantees.
"""

from repro.runtime.checkpoint import CheckpointStore, ShardCheckpoint
from repro.runtime.merge import (
    merge_alerts,
    merge_critical_points,
    merge_finalize_events,
    merge_tagged_events,
)
from repro.runtime.shard import ShardRouter, shard_for_mmsi
from repro.runtime.supervisor import (
    Supervisor,
    WorkerCrash,
    WorkerUnrecoverable,
)
from repro.runtime.system import ParallelSurveillanceSystem, build_system
from repro.runtime.worker import ShardWorker

__all__ = [
    "CheckpointStore",
    "ParallelSurveillanceSystem",
    "ShardCheckpoint",
    "ShardRouter",
    "ShardWorker",
    "Supervisor",
    "WorkerCrash",
    "WorkerUnrecoverable",
    "build_system",
    "merge_alerts",
    "merge_critical_points",
    "merge_finalize_events",
    "merge_tagged_events",
    "shard_for_mmsi",
]

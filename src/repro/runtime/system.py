"""The process-parallel surveillance system (Section 5.2, for real).

:class:`ParallelSurveillanceSystem` *is* a
:class:`~repro.pipeline.system.SurveillanceSystem`: the slide skeleton
(``process_slide`` / ``finalize``, phase timing, metrics, the MOD block,
the pairwise monitor, the :class:`~repro.pipeline.metrics.SlideReport`)
is inherited untouched.  This module supplies only the stage operations
that run on *worker processes* supervised with checkpoint/restart:

* **track** — the :class:`~repro.runtime.shard.ShardRouter` splits the
  positional batch by MMSI hash, every worker tracks + compresses its
  sub-batch concurrently, and the per-shard movement events and critical
  points are spliced back into exact single-process order
  (:mod:`repro.runtime.merge`);
* **finalize-track** — the same fan-out for the end-of-stream flush;
* **recognize** — the merged critical events (and, in pairwise mode, the
  parent-side monitor's pair facts) fan out to the workers' longitude-band
  recognition engines; the bands' alerts merge into the single-engine
  report order.

Determinism is a hard invariant, verified by
``tests/runtime/test_determinism.py``: for any shard count the alerts and
critical-point streams are identical to the single-process pipeline's.

The MOD, trip reconstruction and the archive stay in the parent — the
paper keeps the database centralized while distributing recognition, and
SQLite handles are not shareable across processes anyway.
"""

import shutil
import tempfile
import time

from repro import obs
from repro.ais.stream import PositionalTuple
from repro.maritime.partition import PartitionStepTiming
from repro.maritime.recognizer import Alert
from repro.pipeline.config import SystemConfig
from repro.pipeline.system import SurveillanceSystem
from repro.runtime.merge import (
    merge_alerts,
    merge_critical_points,
    merge_finalize_events,
    merge_tagged_events,
)
from repro.runtime.shard import ShardRouter
from repro.runtime.supervisor import Supervisor
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import WorldModel
from repro.tracking.compressor import CompressionStatistics
from repro.tracking.types import CriticalPoint


class ParallelSurveillanceSystem(SurveillanceSystem):
    """Sharded, supervised, checkpoint-restartable surveillance pipeline.

    Parameters
    ----------
    world, specs, config:
        Exactly as for :class:`~repro.pipeline.system.SurveillanceSystem`.
    shards:
        Worker process count; 1 is valid (useful as the IPC-cost baseline
        of the shard-sweep benchmark).
    checkpoint_dir:
        Where shard checkpoints live.  Defaults to a private temporary
        directory removed on :meth:`close`.
    checkpoint_every:
        Checkpoint cadence in slides; lower means cheaper recovery replay
        but more pickling per slide.
    """

    def __init__(
        self,
        world: WorldModel,
        specs: dict[int, VesselSpec],
        config: SystemConfig | None = None,
        shards: int = 2,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 4,
    ):
        config = config or SystemConfig()
        self.shards = shards
        self.router = ShardRouter(
            world,
            shards,
            close_margin_meters=config.maritime.close_threshold_meters,
        )
        self._owns_checkpoint_dir = checkpoint_dir is None
        self.checkpoint_dir = checkpoint_dir or tempfile.mkdtemp(
            prefix="repro-runtime-"
        )
        self.supervisor = Supervisor(
            worker_args=(world, specs, config),
            shards=shards,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
        #: Fleet-wide compression accounting, summed over the shards.
        self.statistics = CompressionStatistics()
        self.last_partition_timing: PartitionStepTiming | None = None
        self._last_alerts: list[Alert] = []
        self._vessels_tracked = 0
        self._closed = False
        super().__init__(world, specs, config)

    # ------------------------------------------------------------------
    # stage operations, on the shard workers
    # ------------------------------------------------------------------

    def _start_stages(self, specs: dict[int, VesselSpec]) -> None:
        self.supervisor.start()

    def _observe_shards(self, phase: str, replies: list[dict]) -> None:
        """The workers' own (IPC-exclusive) seconds, one sample per request,
        plus the fleet gauges."""
        registry = obs.get_registry()
        if not registry.enabled:
            return
        for shard_id, reply in enumerate(replies):
            registry.observe(
                f"runtime.shard.{shard_id}.{phase}", reply["seconds"]
            )
        registry.set_gauge("runtime.shards", self.shards)
        registry.set_gauge("runtime.restarts_total", self.restart_count())

    def _track(self, batch: list[PositionalTuple], query_time: int):
        routed = self.router.route_positions(batch)
        replies = self.supervisor.request_all(
            "track", [(query_time, routed[i]) for i in range(self.shards)]
        )
        events = merge_tagged_events([r["events"] for r in replies])
        fresh = merge_critical_points([r["fresh"] for r in replies])
        expired = merge_critical_points([r["expired"] for r in replies])
        self._vessels_tracked = sum(r["vessels"] for r in replies)
        self.statistics.raw_positions += len(batch)
        self.statistics.critical_points += len(fresh)
        self._observe_shards("tracking", replies)
        return events, fresh, expired

    def _finalize_track(self, query_time: int):
        replies = self.supervisor.request_all(
            "finalize_track", [(query_time,) for _ in range(self.shards)]
        )
        self._observe_shards("tracking", replies)
        return (
            merge_finalize_events([r["events"] for r in replies]),
            merge_critical_points([r["fresh"] for r in replies]),
            merge_critical_points([r["expired"] for r in replies]),
            merge_critical_points([r["remaining"] for r in replies]),
        )

    def _recognize(self, events, pair_facts, query_time: int):
        """Fan the slide out to the band engines.

        In pairwise mode the monitor's facts are routed to their anchor
        bands and every pair member's movement events are co-routed to
        those bands, so each band engine sees everything its pair rules
        can join on (see docs/SPATIAL.md).
        """
        started = time.perf_counter()
        if pair_facts is None:
            routed_events = self.router.route_events(events)
            payloads = [
                (query_time, routed_events[i]) for i in range(self.shards)
            ]
        else:
            routed_facts = self.router.route_pair_facts(pair_facts)
            routed_events = self.router.route_events(
                events,
                extra_bands_by_mmsi=self.router.pair_fact_bands(pair_facts),
            )
            payloads = [
                (query_time, routed_events[i], routed_facts[i])
                for i in range(self.shards)
            ]
        replies = self.supervisor.request_all("recognize", payloads)
        self.last_partition_timing = PartitionStepTiming(
            per_partition_seconds=[r["step_seconds"] for r in replies],
            measured_parallel_seconds=time.perf_counter() - started,
        )
        self._last_alerts = merge_alerts([r["alerts"] for r in replies])
        self._observe_shards("recognition", replies)
        return sum(r["recognized"] for r in replies), self._last_alerts

    def current_synopsis(self, mmsi: int | None = None) -> list[CriticalPoint]:
        """Critical points currently in the shards' sliding windows."""
        replies = self.supervisor.request_all(
            "synopsis", [(mmsi,) for _ in range(self.shards)]
        )
        return merge_critical_points([r["points"] for r in replies])

    def alerts(self) -> list[Alert]:
        """Alerts from the most recent recognition step, fleet-wide."""
        return list(self._last_alerts)

    def vessel_count(self) -> int:
        """Vessels currently tracked across all shards."""
        return self._vessels_tracked

    def restart_count(self) -> int:
        """Worker restarts performed by the supervisor so far."""
        return self.supervisor.restart_count()

    def terminate_workers(self) -> int:
        """Hard-kill every worker; the next request recovers them from
        their checkpoints (how a wedged slide is converted into an
        ordinary worker restart)."""
        return self.supervisor.terminate_workers()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers, release checkpoint storage, close the MOD."""
        if self._closed:
            return
        self._closed = True
        self.supervisor.stop()
        if self._owns_checkpoint_dir:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        super().close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def build_system(
    world: WorldModel,
    specs: dict[int, VesselSpec],
    config: SystemConfig | None = None,
    shards: int = 1,
    checkpoint_dir: str | None = None,
) -> SurveillanceSystem:
    """The pipeline for a shard count: inline at 1, sharded above.

    The one place that picks the class; everything downstream talks to
    the :class:`~repro.pipeline.system.SurveillanceSystem` surface.
    """
    if shards > 1:
        return ParallelSurveillanceSystem(
            world, specs, config, shards=shards, checkpoint_dir=checkpoint_dir
        )
    return SurveillanceSystem(world, specs, config)

"""Graceful degradation for the MOD write path.

The recognition half of the pipeline (critical points, alert streams)
must not stall because the archival half (sqlite staging, trip
reconstruction) is failing.  :class:`GuardedDatabase` wraps the MOD so
that staging writes run under retry + circuit breaker, and when both
give up the batch lands in a WAL-backed :class:`SpillQueue` instead of
being lost — recognition keeps running on degraded archival.  The first
successful write after recovery drains the backlog in arrival order, so
the staging table converges to exactly what an unfailed run would hold.
The trips do too: a drained row older than what a vessel already has
staged makes reconstruction refold that vessel from its kept rows
(:mod:`repro.mod.database`, "late rows"), and a failed reconstruction
rolls back, so a retry archives nothing twice.

Everything that degrades is counted in the obs registry; nothing is
silently dropped.
"""

import json
from pathlib import Path

from repro import obs
from repro.resilience.breaker import CircuitBreaker, CircuitOpen
from repro.resilience.retry import BackoffPolicy, retry_call
from repro.resilience.wal import WriteAheadLog
from repro.tracking.types import CriticalPoint, MovementEventType


def point_to_payload(point: CriticalPoint) -> bytes:
    """One critical point as a compact, stable JSON record."""
    return json.dumps(
        {
            "mmsi": point.mmsi,
            "lon": point.lon,
            "lat": point.lat,
            "timestamp": point.timestamp,
            "annotations": sorted(a.value for a in point.annotations),
            "speed_mps": point.speed_mps,
            "heading_degrees": point.heading_degrees,
            "duration_seconds": point.duration_seconds,
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode()


def payload_to_point(payload: bytes) -> CriticalPoint:
    data = json.loads(payload.decode("utf-8"))
    return CriticalPoint(
        mmsi=data["mmsi"],
        lon=data["lon"],
        lat=data["lat"],
        timestamp=data["timestamp"],
        annotations=frozenset(
            MovementEventType(v) for v in data["annotations"]
        ),
        speed_mps=data["speed_mps"],
        heading_degrees=data["heading_degrees"],
        duration_seconds=data["duration_seconds"],
    )


class SpillQueue:
    """Critical points awaiting a recovered MOD.

    With a directory the queue is WAL-backed (segments named
    ``spill-*.wal``) and survives a process crash: a restarted service
    re-stages the backlog before accepting new traffic.  Without one it
    is a plain in-memory buffer — degraded archival still works, it just
    does not survive a crash (the service only runs memory-backed when
    no ``--wal-dir`` was given at all).
    """

    def __init__(self, directory: str | Path | None = None,
                 fsync: str = "batch"):
        self._wal: WriteAheadLog | None = None
        self._pending: list[CriticalPoint] = []
        self.spilled_count = 0
        self.drained_count = 0
        if directory is not None:
            self._wal = WriteAheadLog(directory, fsync=fsync, name="spill")
            self._pending = [
                payload_to_point(record.payload)
                for record in self._wal.recovered
            ]

    def spill(self, points: list[CriticalPoint]) -> None:
        """Buffer a batch the MOD refused; durable when WAL-backed."""
        if self._wal is not None:
            for point in points:
                self._wal.append(point_to_payload(point))
            self._wal.sync()
        self._pending.extend(points)
        self.spilled_count += len(points)
        obs.count("resilience.spill.points", len(points))
        obs.set_gauge("resilience.spill.pending", len(self._pending))

    def drain(self) -> list[CriticalPoint]:
        """Hand the whole backlog to the caller and forget it.

        The caller is about to stage these points; if *that* fails they
        are re-spilled, so durability is never in the caller's hands for
        longer than one write attempt.
        """
        points = self._pending
        self._pending = []
        if self._wal is not None and points:
            self._wal.truncate_all()
        self.drained_count += len(points)
        obs.set_gauge("resilience.spill.pending", 0)
        return points

    def __len__(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def snapshot(self) -> dict:
        return {
            "pending": len(self._pending),
            "spilled": self.spilled_count,
            "drained": self.drained_count,
            "durable": self._wal is not None,
        }


class GuardedDatabase:
    """The MOD behind retry, circuit breaker, and spill queue.

    A transparent stand-in for :class:`MovingObjectDatabase` — unknown
    attributes delegate to the wrapped database, so query helpers and
    the HTTP layer keep working unchanged.  Only the two failure-prone
    paths are intercepted:

    * :meth:`stage_points` — retried under the backoff policy inside the
      breaker; on exhaustion or open circuit the batch spills and the
      call *succeeds degraded* (returns 0 staged).  Any success first
      drains the spill backlog so staging converges.
    * :meth:`reconstruct` — skipped while the circuit is open (counted),
      single-attempt otherwise; a reconstruction failure trips the same
      breaker since it shares the sqlite handle.
    """

    def __init__(
        self,
        database,
        breaker: CircuitBreaker | None = None,
        policy: BackoffPolicy | None = None,
        spill: SpillQueue | None = None,
        sleep=None,
    ):
        self._database = database
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.policy = policy if policy is not None else BackoffPolicy()
        self.spill = spill if spill is not None else SpillQueue()
        self._sleep = sleep
        self.degraded_batches = 0

    # -- guarded paths --------------------------------------------------

    def stage_points(self, points: list[CriticalPoint]) -> int:
        """Stage a batch, degrading to the spill queue on failure."""
        backlog = self.spill.drain() if len(self.spill) else []
        batch = backlog + list(points)
        if not batch:
            return 0
        try:
            staged = self.breaker.call(lambda: self._staged_with_retry(batch))
        except CircuitOpen:
            self._degrade(batch)
            return 0
        except Exception as exc:
            obs.count("resilience.guard.stage_failures")
            self._degrade(batch)
            obs.count("resilience.guard.degraded_errors")
            _ = exc  # counted, spilled, swallowed: recognition continues.
            return 0
        if backlog:
            obs.count("resilience.spill.drained", len(backlog))
        return staged

    def _staged_with_retry(self, batch: list[CriticalPoint]) -> int:
        kwargs = {}
        if self._sleep is not None:
            kwargs["sleep"] = self._sleep
        return retry_call(
            lambda: self._database.stage_points(batch),
            self.policy,
            site="mod.write",
            **kwargs,
        )

    def _degrade(self, batch: list[CriticalPoint]) -> None:
        self.spill.spill(batch)
        self.degraded_batches += 1
        obs.count("resilience.guard.degraded_batches")

    def reconstruct(self, timings: dict | None = None) -> int:
        """Reconstruct trips unless the circuit is open (then skip)."""
        try:
            return self.breaker.call(
                lambda: self._database.reconstruct(timings)
            )
        except CircuitOpen:
            obs.count("resilience.guard.reconstruct_skipped")
            return 0
        except Exception:
            obs.count("resilience.guard.reconstruct_failures")
            return 0

    # -- passthrough ----------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self._database, name)

    def close(self) -> None:
        self.spill.close()
        self._database.close()

    def snapshot(self) -> dict:
        """Health view: breaker state, spill backlog, degradation counts."""
        return {
            "breaker": self.breaker.snapshot(),
            "spill": self.spill.snapshot(),
            "degraded_batches": self.degraded_batches,
        }

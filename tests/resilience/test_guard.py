"""Graceful degradation: spill queue, guarded MOD, backlog convergence."""

import pytest

from repro.mod.database import MovingObjectDatabase
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan, inject
from repro.resilience.guard import (
    GuardedDatabase,
    SpillQueue,
    payload_to_point,
    point_to_payload,
)
from repro.resilience.retry import BackoffPolicy
from repro.tracking.types import CriticalPoint, MovementEventType


def make_point(i: int, mmsi: int = 244660001) -> CriticalPoint:
    return CriticalPoint(
        mmsi=mmsi,
        lon=23.5 + i * 1e-3,
        lat=37.9 + i * 1e-3,
        timestamp=1000 + 60 * i,
        annotations=frozenset(
            {MovementEventType.GAP_START} if i % 2 else set()
        ),
        speed_mps=5.0,
        heading_degrees=90.0,
        duration_seconds=60.0,
    )


def port_stop(port, timestamp: int, mmsi: int = 244660001) -> CriticalPoint:
    return CriticalPoint(
        mmsi=mmsi,
        lon=port.lon,
        lat=port.lat,
        timestamp=timestamp,
        annotations=frozenset({MovementEventType.STOP_END}),
        duration_seconds=600,
    )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestPointSerialization:
    def test_roundtrip_preserves_every_field(self):
        for i in range(4):
            point = make_point(i)
            assert payload_to_point(point_to_payload(point)) == point


class TestSpillQueue:
    def test_in_memory_spill_and_drain(self):
        queue = SpillQueue()
        points = [make_point(i) for i in range(5)]
        queue.spill(points[:3])
        queue.spill(points[3:])
        assert len(queue) == 5
        assert queue.drain() == points
        assert len(queue) == 0
        assert not queue.snapshot()["durable"]

    def test_wal_backed_spill_survives_restart(self, tmp_path):
        points = [make_point(i) for i in range(6)]
        queue = SpillQueue(tmp_path)
        queue.spill(points)
        queue.close()

        recovered = SpillQueue(tmp_path)
        assert recovered.drain() == points
        recovered.close()
        # Drain truncated the backing segments: a third open is empty.
        assert len(SpillQueue(tmp_path)) == 0

    def test_torn_spill_journal_is_repaired_at_open(self, tmp_path):
        points = [make_point(i) for i in range(6)]
        queue = SpillQueue(tmp_path)
        queue.spill(points[:4])
        queue.close()
        (segment,) = tmp_path.glob("spill-*.wal")
        segment.write_bytes(segment.read_bytes()[:-3])

        reopened = SpillQueue(tmp_path)
        assert len(reopened) == 3
        reopened.spill(points[4:])
        reopened.close()
        assert SpillQueue(tmp_path).drain() == [*points[:3], *points[4:]]


class TestGuardedDatabase:
    def _guarded(self, world, tmp_path=None, threshold=2, attempts=2):
        clock = FakeClock()
        inner = MovingObjectDatabase(world.ports)
        guard = GuardedDatabase(
            inner,
            breaker=CircuitBreaker(
                name="test", failure_threshold=threshold,
                recovery_seconds=5.0, clock=clock,
            ),
            policy=BackoffPolicy(
                initial_seconds=0.0, max_attempts=attempts
            ),
            spill=SpillQueue(tmp_path) if tmp_path else SpillQueue(),
            sleep=lambda _: None,
        )
        return guard, clock

    def test_transparent_passthrough_when_healthy(self, world):
        guard, _ = self._guarded(world)
        assert guard.stage_points([make_point(i) for i in range(3)]) == 3
        assert guard.staged_count() == 3  # delegated attribute
        assert guard.trip_count() == 0
        guard.close()

    def test_write_fault_is_retried_transparently(self, world):
        guard, _ = self._guarded(world, attempts=3)
        with inject(FaultPlan.from_spec("mod.write:error@1")):
            staged = guard.stage_points([make_point(0)])
        assert staged == 1  # first attempt failed, retry landed it
        assert guard.staged_count() == 1
        assert len(guard.spill) == 0
        guard.close()

    def test_exhausted_retries_spill_and_recognition_continues(self, world):
        guard, _ = self._guarded(world, attempts=2)
        # Both attempts of the first batch fail; it must spill, not raise.
        with inject(FaultPlan.from_spec("mod.write:error@1,mod.write:error@2")):
            assert guard.stage_points([make_point(0), make_point(1)]) == 0
        assert len(guard.spill) == 2
        assert guard.degraded_batches == 1
        assert guard.staged_count() == 0
        guard.close()

    def test_open_circuit_spills_without_touching_the_database(self, world):
        guard, _ = self._guarded(world, threshold=1, attempts=1)
        with inject(FaultPlan.from_spec("mod.write:error@1")):
            guard.stage_points([make_point(0)])  # trips the breaker
            assert guard.breaker.state == "open"
            # The next batch must not even reach the fault point.
            guard.stage_points([make_point(1)])
        assert guard.breaker.rejected_count == 1
        assert len(guard.spill) == 2
        guard.close()

    def test_backlog_drains_in_order_once_the_mod_recovers(self, world):
        guard, clock = self._guarded(world, threshold=1, attempts=1)
        points = [make_point(i) for i in range(4)]
        with inject(FaultPlan.from_spec("mod.write:error@1")):
            guard.stage_points(points[:2])  # fails, spills, opens
        clock.now = 10.0  # past the recovery window: next call probes
        staged = guard.stage_points(points[2:])
        assert staged == 4  # backlog + fresh batch, one write
        assert guard.breaker.state == "closed"
        assert len(guard.spill) == 0
        # Staging converged to exactly what an unfailed run would hold.
        assert guard.staged_points(points[0].mmsi) == points
        guard.close()

    def test_reconstruct_skipped_while_open(self, world):
        guard, clock = self._guarded(world, threshold=1, attempts=1)
        with inject(FaultPlan.from_spec("mod.write:error@1")):
            guard.stage_points([make_point(0)])
        assert guard.breaker.state == "open"
        assert guard.reconstruct() == 0  # skipped, no exception
        assert guard.breaker.rejected_count == 1

    def test_reconstruct_fault_counted_not_fatal(self, world):
        guard, _ = self._guarded(world)
        guard.stage_points([make_point(i) for i in range(2)])
        with inject(FaultPlan.from_spec("mod.reconstruct:error@1")):
            assert guard.reconstruct() == 0
        assert guard.breaker.consecutive_failures == 1
        guard.close()

    def test_failed_reconstruct_is_rolled_back_not_archived_twice(
        self, world, monkeypatch
    ):
        guard, _ = self._guarded(world)
        home, away = world.ports[:2]
        guard.stage_points([
            port_stop(home, 0), port_stop(away, 3600), port_stop(home, 7200),
        ])
        database = guard._database
        insert_trip = database._insert_trip
        inserted = []

        def fail_on_second_trip(trip):
            inserted.append(trip)
            if len(inserted) == 2:
                raise RuntimeError("disk full")
            insert_trip(trip)

        monkeypatch.setattr(database, "_insert_trip", fail_on_second_trip)
        assert guard.reconstruct() == 0  # counted, not raised
        assert guard.trip_count() == 0  # the first trip was rolled back
        monkeypatch.setattr(database, "_insert_trip", insert_trip)
        # A later commit must not persist anything of the failed call.
        guard.stage_points([port_stop(home, 9000)])
        assert guard.reconstruct() == 2
        itineraries = [
            (trip["origin_port"], trip["destination_port"])
            for trip in guard.all_trips()
        ]
        assert itineraries == [(home.name, away.name), (away.name, home.name)]
        guard.close()

    def test_snapshot_shape(self, world):
        guard, _ = self._guarded(world)
        snap = guard.snapshot()
        assert snap["breaker"]["state"] == "closed"
        assert snap["spill"]["pending"] == 0
        assert snap["degraded_batches"] == 0
        guard.close()

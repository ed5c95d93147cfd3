"""Tests for spatial partitioning of CE recognition."""

import pytest

from repro.maritime.partition import (
    PartitionStepTiming,
    PartitionedRecognizer,
    partition_world,
)
from repro.simulator.world import AreaKind, build_aegean_world
from repro.simulator.vessel import VesselSpec, VesselType
from repro.tracking.types import MovementEvent, MovementEventType


class TestPartitionWorld:
    def test_single_partition_is_identity(self, world):
        assert partition_world(world, 1) == [world]

    def test_two_partitions_split_areas(self, world):
        west, east = partition_world(world, 2)
        assert len(west.areas) + len(east.areas) == len(world.areas)
        assert west.bbox.max_lon == east.bbox.min_lon
        mid = (world.bbox.min_lon + world.bbox.max_lon) / 2
        assert all(a.polygon.centroid[0] < mid for a in west.areas)
        assert all(a.polygon.centroid[0] >= mid for a in east.areas)

    def test_ports_shared(self, world):
        west, east = partition_world(world, 2)
        assert west.ports == world.ports
        assert east.ports == world.ports

    def test_four_partitions(self, world):
        bands = partition_world(world, 4)
        assert len(bands) == 4
        assert sum(len(b.areas) for b in bands) == len(world.areas)

    def test_invalid_count(self, world):
        with pytest.raises(ValueError, match="partitions"):
            partition_world(world, 0)


class TestPartitionedRecognizer:
    def make(self, world, partitions=2):
        specs = {1: VesselSpec(1, VesselType.TANKER, 10.0, False)}
        return PartitionedRecognizer(world, specs, 10_000, partitions=partitions)

    def test_events_routed_by_longitude(self):
        # speedChange, which illegalFishing's termination reads, is stored
        # by the partition that covers the ME.
        world = build_aegean_world()
        recognizer = self.make(world)
        west_event = MovementEvent(
            MovementEventType.SPEED_CHANGE, 1, world.bbox.min_lon + 0.1, 38.0, 100
        )
        east_event = MovementEvent(
            MovementEventType.SPEED_CHANGE, 1, world.bbox.max_lon - 0.1, 38.0, 200
        )
        recognizer.ingest([west_event, east_event], arrival_time=500)
        west_memory = recognizer.recognizers[0].engine.working_memory
        east_memory = recognizer.recognizers[1].engine.working_memory
        assert len(west_memory.events_in_window("speedChange", 0, 1000)) == 1
        assert len(east_memory.events_in_window("speedChange", 0, 1000)) == 1

    def test_recognition_equivalent_to_single_engine(self):
        # A gap inside a protected area is recognized regardless of the
        # partition count.
        world = build_aegean_world()
        protected = world.areas_of_kind(AreaKind.PROTECTED)[0]
        center = protected.polygon.centroid
        gap = MovementEvent(MovementEventType.GAP_START, 1, center[0], center[1], 100)
        single = self.make(world, partitions=1)
        double = self.make(world, partitions=2)
        for recognizer in (single, double):
            recognizer.ingest([gap], arrival_time=500)
            recognizer.step(500)
        assert [a.kind for a in single.alerts()] == ["illegalShipping"]
        assert [a.kind for a in double.alerts()] == ["illegalShipping"]

    def test_step_reports_timings(self):
        world = build_aegean_world()
        recognizer = self.make(world)
        results, timing = recognizer.step(100)
        assert len(results) == 2
        assert len(timing.per_partition_seconds) == 2
        assert timing.parallel_seconds <= timing.sequential_seconds


class TestTimingArithmetic:
    def test_parallel_is_max(self):
        timing = PartitionStepTiming([0.2, 0.5, 0.1])
        assert timing.parallel_seconds == 0.5
        assert timing.sequential_seconds == pytest.approx(0.8)

    def test_empty(self):
        assert PartitionStepTiming([]).parallel_seconds == 0.0

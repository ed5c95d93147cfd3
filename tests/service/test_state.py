"""Vessel snapshot store and alert ring tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ais.stream import PositionalTuple
from repro.geo.haversine import haversine_meters, initial_bearing_degrees
from repro.maritime.recognizer import Alert
from repro.service import AlertRing, VesselSnapshot, VesselStateStore


class TestVesselStateStore:
    def test_first_position_has_zero_velocity(self):
        store = VesselStateStore()
        store.update([PositionalTuple(1, 24.0, 37.0, 100)])
        snapshot = store.get(1)
        assert snapshot.speed_mps == 0.0
        assert snapshot.positions_seen == 1

    def test_velocity_derived_from_consecutive_positions(self):
        store = VesselStateStore()
        store.update([
            PositionalTuple(1, 24.0, 37.0, 0),
            # ~0.01 deg of longitude at 37N is ~888 m, heading ~east.
            PositionalTuple(1, 24.01, 37.0, 100),
        ])
        snapshot = store.get(1)
        assert snapshot.speed_mps == pytest.approx(8.88, rel=0.05)
        assert snapshot.heading_degrees == pytest.approx(90.0, abs=1.0)
        assert snapshot.timestamp == 100
        assert snapshot.positions_seen == 2

    def test_vessels_are_independent(self):
        store = VesselStateStore()
        store.update([
            PositionalTuple(1, 24.0, 37.0, 0),
            PositionalTuple(2, 25.0, 38.0, 0),
        ])
        assert store.mmsis() == [1, 2]
        assert store.get(3) is None

    def test_snapshot_dict_shape(self):
        store = VesselStateStore()
        store.update([PositionalTuple(9, 24.0, 37.0, 5)])
        payload = store.get(9).to_dict()
        assert payload["mmsi"] == 9
        assert set(payload) >= {
            "lon", "lat", "timestamp", "speed_mps", "speed_knots",
            "heading_degrees", "positions_seen",
        }


class EagerVesselStateStore:
    """The reference: velocity computed on every position as it is folded."""

    def __init__(self) -> None:
        self.snapshots: dict[int, VesselSnapshot] = {}

    def update(self, positions) -> None:
        for position in positions:
            snapshot = self.snapshots.get(position.mmsi)
            if snapshot is None:
                self.snapshots[position.mmsi] = VesselSnapshot(
                    mmsi=position.mmsi,
                    lon=position.lon,
                    lat=position.lat,
                    timestamp=position.timestamp,
                    positions_seen=1,
                )
                continue
            dt = position.timestamp - snapshot.timestamp
            if dt > 0:
                meters = haversine_meters(
                    snapshot.lon, snapshot.lat, position.lon, position.lat
                )
                snapshot.speed_mps = meters / dt
                snapshot.heading_degrees = initial_bearing_degrees(
                    snapshot.lon, snapshot.lat, position.lon, position.lat
                )
            snapshot.lon = position.lon
            snapshot.lat = position.lat
            snapshot.timestamp = max(snapshot.timestamp, position.timestamp)
            snapshot.positions_seen += 1


#: Positions of three vessels whose timestamps repeat, go backwards and
#: jump ahead, with fixes that often repeat too.
positions = st.builds(
    PositionalTuple,
    mmsi=st.sampled_from([1, 2, 3]),
    lon=st.sampled_from([24.0, 24.01]) | st.floats(min_value=-180, max_value=180),
    lat=st.sampled_from([37.0]) | st.floats(min_value=-90, max_value=90),
    timestamp=st.integers(min_value=0, max_value=12),
)


class TestVelocityOnRead:
    @settings(max_examples=150, deadline=None)
    @given(batches=st.lists(st.lists(positions, max_size=6), max_size=8))
    def test_vessel_dicts_match_the_eager_fold(self, batches):
        store, eager = VesselStateStore(), EagerVesselStateStore()
        for batch in batches:
            store.update(batch)
            eager.update(batch)
            assert store.mmsis() == sorted(eager.snapshots)
            for mmsi in store.mmsis():
                assert store.get(mmsi).to_dict() == eager.snapshots[mmsi].to_dict()


class TestAlertRing:
    def alert(self, kind="suspicious"):
        return Alert(kind, "area_1", 60, None, 1)

    def test_sequences_are_monotone(self):
        ring = AlertRing(10)
        ring.append(1800, (self.alert(), self.alert("illegalFishing")))
        ring.append(3600, (self.alert(),))
        assert [e["seq"] for e in ring.since(0)] == [1, 2, 3]
        assert ring.last_seq == 3

    def test_since_cursor(self):
        ring = AlertRing(10)
        ring.append(1800, (self.alert(), self.alert()))
        assert [e["seq"] for e in ring.since(1)] == [2]
        assert ring.since(2) == []
        assert ring.since(99) == []

    def test_capacity_evicts_oldest(self):
        ring = AlertRing(2)
        for query_time in (1, 2, 3):
            ring.append(query_time, (self.alert(),))
        entries = ring.since(0)
        assert [e["seq"] for e in entries] == [2, 3]
        assert len(ring) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AlertRing(0)

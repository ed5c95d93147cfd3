"""Property-based tests for trip segmentation."""

from hypothesis import example, given, strategies as st

from repro.geo.polygon import GeoPolygon
from repro.mod.database import MovingObjectDatabase
from repro.reconstruct.trips import TripSegmenter
from repro.simulator.world import Port
from repro.tracking.types import CriticalPoint, MovementEventType

PORTS = [
    Port("alpha", 23.0, 38.0, GeoPolygon.rectangle("pa", 23.0, 38.0, 3000, 3000)),
    Port("beta", 24.0, 38.0, GeoPolygon.rectangle("pb", 24.0, 38.0, 3000, 3000)),
]

# Random critical points: some at ports (stops), some at sea.
point_strategy = st.tuples(
    st.sampled_from(["alpha", "beta", "sea"]),
    st.booleans(),  # whether a stop annotation is attached
    st.integers(min_value=0, max_value=100_000),
)


def materialize(raw):
    points = []
    for location, is_stop, timestamp in raw:
        if location == "alpha":
            lon, lat = 23.0, 38.0
        elif location == "beta":
            lon, lat = 24.0, 38.0
        else:
            lon, lat = 23.5, 38.5
        kind = (
            MovementEventType.STOP_END if is_stop else MovementEventType.TURN
        )
        points.append(
            CriticalPoint(
                mmsi=1,
                lon=lon,
                lat=lat,
                timestamp=timestamp,
                annotations=frozenset({kind}),
            )
        )
    return points


class TestSegmentationProperties:
    @given(raw=st.lists(point_strategy, max_size=60))
    def test_no_point_invented_and_anchors_shared_once(self, raw):
        points = materialize(raw)
        segmenter = TripSegmenter(PORTS)
        trips, residue = segmenter.segment(points)
        covered = sum(trip.point_count for trip in trips) + len(residue)
        # Points are never invented: coverage can exceed the input only by
        # the shared trip-boundary anchors (one per trip at most), and
        # points absorbed into pier dwell may be dropped.
        assert covered <= len(points) + len(trips)
        input_keys = {(p.timestamp, p.lon, p.lat) for p in points}
        for trip in trips:
            for point in trip.points:
                assert (point.timestamp, point.lon, point.lat) in input_keys
        for point in residue:
            assert (point.timestamp, point.lon, point.lat) in input_keys

    @given(raw=st.lists(point_strategy, max_size=60))
    def test_trips_are_time_ordered_and_contiguous(self, raw):
        points = materialize(raw)
        trips, _ = TripSegmenter(PORTS).segment(points)
        for trip in trips:
            times = [p.timestamp for p in trip.points]
            assert times == sorted(times)
        for before, after in zip(trips, trips[1:]):
            assert before.end_time <= after.start_time

    @given(raw=st.lists(point_strategy, max_size=60))
    def test_every_trip_ends_at_its_destination_port(self, raw):
        points = materialize(raw)
        segmenter = TripSegmenter(PORTS)
        trips, _ = segmenter.segment(points)
        for trip in trips:
            last = trip.points[-1]
            assert segmenter.port_of_stop(last) == trip.destination_port

    @given(raw=st.lists(point_strategy, max_size=60))
    def test_origin_chain_is_consistent(self, raw):
        # Each trip's origin is the previous trip's destination (or the
        # port of an intervening pier-drift reset); it is never a port the
        # vessel was not at.
        points = materialize(raw)
        trips, _ = TripSegmenter(PORTS).segment(points)
        for _before, after in zip(trips, trips[1:]):
            if after.origin_port is not None:
                assert after.origin_port in {"alpha", "beta"}

    @given(raw=st.lists(point_strategy, max_size=60))
    def test_distance_is_non_negative_and_polyline_additive(self, raw):
        points = materialize(raw)
        trips, _ = TripSegmenter(PORTS).segment(points)
        for trip in trips:
            assert trip.distance_meters >= 0.0
            assert trip.travel_time_seconds >= 0


def archived_trips(batches) -> list[dict]:
    """Trips a MOD archives when each batch is staged then reconstructed."""
    with MovingObjectDatabase(PORTS) as mod:
        for batch in batches:
            mod.stage_points(batch)
            mod.reconstruct()
        return [
            {key: value for key, value in trip.items() if key != "trip_id"}
            for trip in mod.all_trips()
        ]


#: A -> B, reconstruct, B -> A: the closing stop at beta must stay staged
#: as the second voyage's origin.
THERE_AND_BACK = [
    ("alpha", True, 0), ("sea", False, 1000), ("sea", False, 2000),
    ("beta", True, 3000), ("sea", False, 4000), ("sea", False, 5000),
    ("alpha", True, 6000),
]


class TestReconstructionSplits:
    @given(
        raw=st.lists(point_strategy, max_size=40, unique_by=lambda r: r[2]),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=5),
    )
    @example(raw=THERE_AND_BACK, cuts=[4])
    def test_any_split_into_reconstruct_calls_yields_the_same_trips(
        self, raw, cuts
    ):
        # Strictly time-ordered rows: unique timestamps, staged in order.
        points = sorted(materialize(raw), key=lambda p: p.timestamp)
        bounds = sorted(set(cuts))
        batches = [
            points[start:end]
            for start, end in zip([0, *bounds], [*bounds, len(points)])
        ]
        assert archived_trips(batches) == archived_trips([points])

"""Tests for positional stream replay and the delay model."""

import pytest
from hypothesis import given, strategies as st

from repro.ais.stream import (
    DelayModel,
    PositionalTuple,
    StreamReplayer,
    TimedArrival,
    merge_streams,
)


def make_positions(timestamps, mmsi=1):
    return [PositionalTuple(mmsi, 23.0, 37.0, t) for t in timestamps]


class TestDelayModel:
    def test_no_delay_preserves_timestamps(self):
        positions = make_positions([10, 20, 30])
        arrivals = DelayModel().apply(positions)
        assert [a.arrival for a in arrivals] == [10, 20, 30]

    def test_delays_are_bounded_and_sorted(self):
        positions = make_positions(range(0, 1000, 10))
        model = DelayModel(delay_probability=0.5, max_delay_seconds=120, seed=3)
        arrivals = model.apply(positions)
        assert all(
            0 <= a.arrival - a.position.timestamp <= 120 for a in arrivals
        )
        assert [a.arrival for a in arrivals] == sorted(a.arrival for a in arrivals)

    def test_deterministic_with_seed(self):
        positions = make_positions(range(0, 500, 7))
        first = DelayModel(0.3, 60, seed=9).apply(positions)
        second = DelayModel(0.3, 60, seed=9).apply(positions)
        assert first == second

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="delay_probability"):
            DelayModel(delay_probability=1.5)

    def test_negative_delay(self):
        with pytest.raises(ValueError, match="max_delay_seconds"):
            DelayModel(max_delay_seconds=-1)

    @given(probability=st.floats(min_value=0, max_value=1))
    def test_all_positions_preserved(self, probability):
        positions = make_positions(range(0, 100, 5))
        arrivals = DelayModel(probability, 30, seed=1).apply(positions)
        assert sorted(a.position.timestamp for a in arrivals) == list(
            range(0, 100, 5)
        )


class TestStreamReplayer:
    def test_batches_group_by_slide(self):
        arrivals = [TimedArrival(t, p) for t, p in
                    zip([5, 15, 25, 35], make_positions([5, 15, 25, 35]))]
        replayer = StreamReplayer(arrivals, slide_seconds=10)
        batches = list(replayer.batches())
        assert [q for q, _ in batches] == [10, 20, 30, 40]
        assert [len(b) for _, b in batches] == [1, 1, 1, 1]

    def test_boundary_item_belongs_to_earlier_batch(self):
        # Arrival exactly at the query time is included in that batch.
        arrivals = [TimedArrival(10, make_positions([10])[0])]
        replayer = StreamReplayer(arrivals, slide_seconds=10)
        batches = list(replayer.batches())
        assert batches[0][0] == 10
        assert len(batches[0][1]) == 1

    def test_empty_slides_are_yielded(self):
        arrivals = [TimedArrival(t, p) for t, p in
                    zip([5, 45], make_positions([5, 45]))]
        replayer = StreamReplayer(arrivals, slide_seconds=10)
        batches = list(replayer.batches())
        assert [q for q, _ in batches] == [10, 20, 30, 40, 50]
        assert [len(b) for _, b in batches] == [1, 0, 0, 0, 1]

    def test_empty_stream(self):
        assert list(StreamReplayer([], 10).batches()) == []

    def test_invalid_slide(self):
        with pytest.raises(ValueError, match="slide must be positive"):
            StreamReplayer([], 0)

    @given(
        timestamps=st.lists(
            st.integers(min_value=1, max_value=10_000), min_size=1, max_size=200
        ),
        slide=st.integers(min_value=1, max_value=500),
    )
    def test_every_item_appears_exactly_once(self, timestamps, slide):
        positions = make_positions(sorted(timestamps))
        arrivals = [TimedArrival(p.timestamp, p) for p in positions]
        replayer = StreamReplayer(arrivals, slide)
        seen = [p for _, batch in replayer.batches() for p in batch]
        assert sorted(p.timestamp for p in seen) == sorted(timestamps)

    @given(
        timestamps=st.lists(
            st.integers(min_value=1, max_value=10_000), min_size=1, max_size=200
        ),
        slide=st.integers(min_value=1, max_value=500),
    )
    def test_batch_items_arrive_within_their_slide(self, timestamps, slide):
        positions = make_positions(sorted(timestamps))
        arrivals = [TimedArrival(p.timestamp, p) for p in positions]
        for query_time, batch in StreamReplayer(arrivals, slide).batches():
            for position in batch:
                assert query_time - slide < position.timestamp <= query_time


class TestMergeStreams:
    def test_merges_by_timestamp(self):
        stream_a = make_positions([10, 30], mmsi=1)
        stream_b = make_positions([20, 40], mmsi=2)
        merged = merge_streams([stream_a, stream_b])
        assert [p.timestamp for p in merged] == [10, 20, 30, 40]

    def test_empty_inputs(self):
        assert merge_streams([]) == []
        assert merge_streams([[], []]) == []

    def test_preserves_per_vessel_order(self):
        stream_a = make_positions([10, 20, 30], mmsi=1)
        stream_b = make_positions([15, 25], mmsi=2)
        merged = merge_streams([stream_a, stream_b])
        per_vessel = [p.timestamp for p in merged if p.mmsi == 1]
        assert per_vessel == [10, 20, 30]

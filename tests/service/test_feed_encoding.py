"""Twin tests: the fragment encoder writes the bytes of ``json.dumps``.

:func:`repro.service.protocol.slide_feed_line` encodes each alert and
critical point once and lays the fragments out itself;
``tests/service/feed_oracle.py`` is the nested ``json.dumps`` it replaced.
Both must agree byte for byte on every value the records can carry,
and the gateway merge of disjoint shard lines must give the single
node's line of their union.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.gateway.merge import merged_feed_line, parse_feed_line
from repro.maritime.recognizer import Alert, alert_sort_key
from repro.pipeline.metrics import SlideReport
from repro.service.protocol import slide_feed_line
from repro.tracking.types import CriticalPoint, MovementEventType
from tests.service import feed_oracle

TWIN = settings(max_examples=100, deadline=None)

#: Floats ``json.dumps`` spells specially or that round-trip narrowly.
EDGE_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e308,
    3.0, 1e16, -2.5e-7,
]
#: Integers past the 64-bit range, which no fixed-width path may clip.
BIG_INTS = [2**63, 2**64 + 1, -(2**70), 10**30]
#: Characters JSON escapes, and characters outside ASCII.
ODD_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", " ", "\U0001f6a2"]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ints = st.one_of(st.sampled_from(BIG_INTS), st.integers())
texts = st.one_of(
    st.sampled_from(ODD_TEXT),
    st.text(alphabet=st.one_of(st.sampled_from(ODD_TEXT), st.characters())),
)
mmsis = st.one_of(
    st.sampled_from([1, 2, 3]), st.integers(min_value=0), st.sampled_from(BIG_INTS[:2])
)
maybe_mmsi = st.one_of(st.none(), mmsis)
annotations = st.frozensets(st.sampled_from(list(MovementEventType)))


def alert_strategy(area):
    return st.builds(
        Alert,
        kind=texts,
        area=area,
        since=ints,
        until=st.one_of(st.none(), ints),
        mmsi=maybe_mmsi,
        mmsi2=maybe_mmsi,
    )


# Few distinct vessels and instants, so points often share both and the
# sort falls through to the encoded point.
points = st.builds(
    CriticalPoint,
    mmsi=st.one_of(st.sampled_from([1, 2]), mmsis),
    lon=floats,
    lat=floats,
    timestamp=st.one_of(st.sampled_from([0, 60]), ints),
    annotations=annotations,
    speed_mps=floats,
    heading_degrees=floats,
    duration_seconds=ints,
)


def report(counters, alerts, fresh_points) -> SlideReport:
    query_time, raw, events, recognized = counters
    return SlideReport(
        query_time=query_time,
        raw_positions=raw,
        movement_events=events,
        fresh_critical_points=len(fresh_points),
        expired_critical_points=0,
        recognized_complex_events=recognized,
        alerts=tuple(alerts),
        timings={},
        fresh_points=tuple(fresh_points),
    )


counters = st.tuples(ints, ints, ints, ints)
kinds = st.sampled_from(["slide", "finalize"])


@TWIN
@given(
    counters=counters,
    alerts=st.lists(alert_strategy(st.one_of(texts, ints)), max_size=6),
    fresh_points=st.lists(points, max_size=8),
    kind=kinds,
)
def test_slide_feed_line_equals_the_json_dumps_oracle(
    counters, alerts, fresh_points, kind
):
    slide = report(counters, alerts, fresh_points)
    line = slide_feed_line(slide, kind)
    assert line == feed_oracle.slide_feed_line(slide, kind)


def test_points_sharing_vessel_and_instant_order_by_their_encoding():
    def point(lon, annotations):
        return CriticalPoint(7, lon, 37.0, 60, frozenset(annotations))

    turn, speed = MovementEventType.TURN, MovementEventType.SPEED_CHANGE
    # Equal sets built in both orders (which PYTHONHASHSEED=19 iterates
    # differently) share one memo entry.
    same = [
        point(24.5, [turn, speed]),
        point(24.25, ()),
        point(24.5, [MovementEventType.PAUSE]),
        point(24.75, [speed, turn]),
    ]
    for order in (same, same[::-1]):
        slide = report((60, 4, 4, 0), [], order)
        line = slide_feed_line(slide)
        assert line == feed_oracle.slide_feed_line(slide)
    # Annotations lead the sorted keys, and '"' sorts before ']'.
    assert [
        (p["annotations"], p["lon"]) for p in json.loads(line)["critical_points"]
    ] == [
        (["pause"], 24.5),
        (["speed_change", "turn"], 24.5),
        (["speed_change", "turn"], 24.75),
        ([], 24.25),
    ]


def _shard(mmsi) -> int:
    return 0 if mmsi is None else mmsi % 2


@TWIN
@given(
    shard_counters=st.tuples(counters, counters),
    alerts=st.lists(alert_strategy(texts), max_size=6),
    fresh_points=st.lists(points, max_size=8),
    kind=kinds,
)
def test_merging_disjoint_shard_lines_equals_the_oracle_line_of_their_union(
    shard_counters, alerts, fresh_points, kind
):
    # The query time is one boundary; the other counters sum.
    query_time = shard_counters[0][0]
    shard_counters = [(query_time, *c[1:]) for c in shard_counters]
    alerts = sorted(alerts, key=alert_sort_key)
    lines = [
        slide_feed_line(
            report(
                shard_counters[shard],
                [a for a in alerts if _shard(a.mmsi) == shard],
                [p for p in fresh_points if _shard(p.mmsi) == shard],
            ),
            kind,
        )
        for shard in (0, 1)
    ]
    union = report(
        (query_time, *(a + b for a, b in zip(*(c[1:] for c in shard_counters)))),
        alerts,
        fresh_points,
    )
    merged = merged_feed_line([parse_feed_line(line) for line in lines])
    assert merged == feed_oracle.slide_feed_line(union, kind)

"""Twin test: the fragment splice writes the re-encoding merge's bytes.

:func:`repro.gateway.merge.parse_feed_line` cuts each runtime's line into
its records' fragments and :func:`~repro.gateway.merge.merged_feed_line`
splices them; ``tests/gateway/merge_oracle.py`` is the merge it
replaced, which decoded each line whole and encoded every record again.
Over shard lines that :func:`~repro.service.protocol.slide_feed_line`
writes for disjoint vessels, carrying every value a record can, both
merges must write the same line.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.gateway.merge import merged_feed_line, parse_feed_line
from repro.maritime.recognizer import alert_sort_key
from repro.service.protocol import slide_feed_line
from tests.gateway import merge_oracle
from tests.service.test_feed_encoding import (
    alert_strategy,
    counters,
    kinds,
    points,
    report,
    texts,
)


@settings(max_examples=150, deadline=None)
@given(
    shards=st.integers(1, 4),
    shard_counters=st.lists(counters, min_size=4, max_size=4),
    alerts=st.lists(alert_strategy(texts), max_size=8),
    fresh_points=st.lists(points, max_size=12),
    kind=kinds,
)
def test_the_splice_equals_the_re_encoding_merge(
    shards, shard_counters, alerts, fresh_points, kind
):
    # One query time; each vessel on one shard, as the router deals them.
    query_time = shard_counters[0][0]

    def shard(mmsi):
        return 0 if mmsi is None else mmsi % shards

    alerts = sorted(alerts, key=alert_sort_key)
    lines = [
        slide_feed_line(
            report(
                (query_time, *shard_counters[index][1:]),
                [a for a in alerts if shard(a.mmsi) == index],
                [p for p in fresh_points if shard(p.mmsi) == index],
            ),
            kind,
        )
        for index in range(shards)
    ]
    assert merged_feed_line([parse_feed_line(line) for line in lines]) == (
        merge_oracle.merged_feed_line([json.loads(line) for line in lines])
    )

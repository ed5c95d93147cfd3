"""Frontier release is invisible: a shard that tracks behind its
sources' watermarks publishes the offline replay's feed.

Two gateway nodes are the sources.  Each vessel's reports are dealt at
random between them, each node takes its share in reads cut at random
(so its watermarks fall at random), and the two links'
lines reach one runtime shard in a random interleaving, handed over in
random batches.  The shard (``watermark_sources=2``, a real
:class:`~repro.pipeline.SurveillanceSystem`) tracks each position once
every live source's clock has passed it, and its feed must equal the
offline replay's byte for byte:

* with time-ordered sources nothing it released is ever overtaken, so
  no vessel rolls back (``tracking.arrival_rollbacks == 0``);
* with a source that forwards lines behind its own watermark — one
  inside a later slide, after a later report of its vessel was tracked,
  and one early straggler that re-anchors the slide grid before the
  first slide — the feed is still the replay's, and the late report
  rolls its vessel back.

The reports are single sentences: two sources' fragment groups that
share a group key would interleave at the shard, and no scanner can
pair such fragments back up.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ais.scanner import DataScanner
from repro.ais.stream import first_query_time
from repro.pipeline import SystemConfig
from tests.parity import (
    first_watermark_at,
    gateway_records,
    offline_oracle,
    run_shard,
)
from tests.service.conftest import to_sentences

CONFIG = SystemConfig()
SLIDE = CONFIG.window.slide_seconds

#: Reports of the small fleet's first ~75 minutes: eight slides.
REPORTS = 700


@pytest.fixture(scope="module")
def stream(small_fleet):
    return to_sentences(small_fleet["stream"][:REPORTS])


def _slide(receive_time: int) -> int:
    return first_query_time(receive_time, SLIDE)


def _deal(sentences, rng) -> list[list]:
    """Each sentence to one of two sources, at random: each source stays
    time-ordered."""
    sources: list[list] = [[], []]
    for sentence in sentences:
        sources[rng.random() < 0.5].append(sentence)
    return sources


def _forward(name: str, sentences, rng, cuts=()) -> list[tuple[int, str]]:
    """What gateway node ``name`` forwards of ``sentences`` read in
    random cuts, and always cut before each index in ``cuts``."""
    cuts = {*cuts, *(i for i in range(len(sentences)) if rng.random() < 0.15)}
    return gateway_records(name, sentences, cuts)[0]


def _interleave(links, rng, hold=None) -> list:
    """The two links' records in one random interleaving, each link's
    order kept.  ``hold = (link, index, ready)`` keeps that link's
    record ``index`` back until ``ready`` has passed on the other link."""
    merged = []
    heads = [0, 0]
    while heads[0] < len(links[0]) or heads[1] < len(links[1]):
        side = rng.random() < 0.5
        if heads[side] == len(links[side]):
            side = not side
        step = min(rng.randint(1, 12), len(links[side]) - heads[side])
        if hold is not None:
            link, index, ready = hold
            if side == link and heads[link] <= index and heads[not link] <= ready:
                if heads[link] == index:
                    side = not side
                    step = min(rng.randint(1, 12), len(links[side]) - heads[side])
                else:
                    step = min(step, index - heads[link])
        merged += links[side][heads[side] : heads[side] + step]
        heads[side] += step
    return merged


def _shard_feed(records, world, specs, hand_over: int) -> tuple[list, dict]:
    """One shard fed ``records``: its feed and its counters, with the
    number of ``track`` calls as ``arrival_tracks``."""
    feed, _, registry = run_shard(records, world, specs, CONFIG, 2, hand_over)
    counters = registry.snapshot()["counters"]
    arrival = registry.span_histogram("tracking.arrival")
    counters["arrival_tracks"] = arrival.count if arrival is not None else 0
    return feed, counters


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), hand_over=st.integers(1, 60))
def test_time_ordered_sources_equal_the_replay_and_never_roll_back(
    seed, hand_over, stream, world, small_fleet
):
    rng = random.Random(seed)
    specs = small_fleet["specs"]
    sources = _deal(stream, rng)
    links = [_forward(f"gw{index}", share, rng) for index, share in enumerate(sources)]
    feed, counters = _shard_feed(_interleave(links, rng), world, specs, hand_over)
    assert feed == offline_oracle(stream, world, specs, CONFIG)
    assert counters.get("tracking.arrival_rollbacks", 0) == 0
    assert counters["arrival_tracks"] > 0


def _late_input(stream, rng):
    """The stream with its first slide cut to one report, dealt to two
    sources; source 0 forwards two reports behind its watermark:

    * its first report, an early straggler, after its first reads of
      the next slide, so the shard's grid re-anchors to it;
    * a report of a later slide, after a later report of its vessel in
      that slide, in a read of its own.

    Returns the stream, source 0's sentences, the late report's new
    index and its vessel's later stamp, and source 1's sentences."""
    straggler = stream[0]
    rest = [pair for pair in stream if _slide(pair[0]) > _slide(straggler[0])]
    opening = _slide(rest[0][0])
    source, other = _deal(rest, rng)
    # Same-vessel neighbours inside one slide after the opening one.
    pairs, last = [], {}
    for index, position in enumerate(DataScanner().scan_many(source)):
        early = last.get(position.mmsi)
        slide = _slide(position.timestamp)
        if early is not None and _slide(source[early][0]) == slide > opening:
            if source[early][0] < position.timestamp:
                pairs.append((early, index))
        last[position.mmsi] = index
    early, later = rng.choice(pairs)
    end = next(
        (i for i, (t, _) in enumerate(source) if _slide(t) > _slide(source[later][0])),
        len(source),
    )
    later_stamp = source[later][0]
    source = list(source)
    moved = source.pop(early)
    source.insert(end - 1, moved)
    in_opening = sum(_slide(t) == opening for t, _ in source)
    source.insert(rng.randint(1, min(5, in_opening)), straggler)
    return [straggler, *rest], source, source.index(moved), later_stamp, other


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), hand_over=st.integers(1, 60))
def test_late_lines_keep_the_replay_and_roll_back(
    seed, hand_over, stream, world, small_fleet
):
    rng = random.Random(seed)
    specs = small_fleet["specs"]
    stream, source, late, later_stamp, other = _late_input(stream, rng)
    links = [_forward("gw0", source, rng, cuts=(late,)), _forward("gw1", other, rng)]
    # The late report reaches the shard only once the other source's
    # clock has passed its vessel's later report.
    late_record = next(
        index for index, (t, line) in enumerate(links[0])
        if (t, line) == source[late]
    )
    ready = first_watermark_at(links[1], later_stamp)
    merged = _interleave(links, rng, hold=(0, late_record, ready))
    feed, counters = _shard_feed(merged, world, specs, hand_over)
    assert feed == offline_oracle(stream, world, specs, CONFIG)
    assert counters.get("tracking.arrival_rollbacks", 0) > 0

"""The batch hand-over against the offline replay and the per-line path.

The batcher takes whatever the ingest queue holds in one hand-over and
scans each run of data lines between control lines in one
``DataScanner.scan_many``.  How the queue happens to cut the stream must
change nothing: for hand-overs of every size from 1 to the whole stream
— with heartbeats, watermarks and malformed ``!REPRO,`` lines interleaved
— the feed is byte-identical to the offline replay, and the dead-letter
buffer holds the rejected sentences, with their causes, in the order the
per-sentence scanner (``tests/ais/oracle.py``) rejects them.  A crash
mid-stream, a journal replay and the resumed tail give the same feed.
"""

import asyncio

import pytest

from repro import obs
from repro.pipeline.config import SystemConfig
from repro.pipeline.system import SurveillanceSystem
from repro.resilience import FaultPlan, SimulatedCrash, inject
from repro.resilience.wal import IngestJournal
from repro.service.batcher import SlideBatcher
from repro.service.protocol import (
    HEARTBEAT_PREFIX,
    WATERMARK_PREFIX,
    parse_heartbeat,
    parse_watermark,
    slide_feed_line,
)
from repro.tracking import WindowSpec
from tests.ais.oracle import OracleScanner
from tests.parity import HandOver, offline_oracle

#: One-minute slides, so a short stream crosses several boundaries.
CONFIG = SystemConfig(window=WindowSpec.of_minutes(10, 1))

#: Control lines and look-alikes, dealt into the stream in turn.
CONTROL = [
    HEARTBEAT_PREFIX + "gw0,1",
    WATERMARK_PREFIX + "gw0",
    WATERMARK_PREFIX,  # no source: data, rejected by the scanner
    HEARTBEAT_PREFIX + "gw0,notanumber",  # malformed: data
    "!REPRO,XX,gw0",  # unknown control kind: data
    WATERMARK_PREFIX + "gw0,final",
    WATERMARK_PREFIX + "gw0,bogus",  # malformed flag: data
    "!AIVDM,1,1,,A,garbage,0*00",
    HEARTBEAT_PREFIX + "gw1,2",
]


@pytest.fixture(scope="module")
def stream(soak_sentences):
    """A short stretch of the soak stream with control lines dealt in."""
    lines = []
    for index, record in enumerate(soak_sentences[:64]):
        lines.append(record)
        if index % 4 == 3:
            lines.append((record[0], CONTROL[index // 4 % len(CONTROL)]))
    return lines


def _data(records):
    """What the batcher scans: every line but heartbeats and watermarks."""
    return [
        (receive_time, sentence)
        for receive_time, sentence in records
        if parse_heartbeat(sentence) is None and parse_watermark(sentence) is None
    ]


def _per_line_deadletters(records):
    """The per-sentence path's quarantine: each rejection, in order."""
    oracle = OracleScanner()
    letters = []
    for receive_time, sentence in _data(records):
        oracle.scan(receive_time, sentence)
        if oracle.last_rejection is not None:
            letters.append((receive_time, sentence, oracle.last_rejection))
    return letters


def _batcher(world, specs, queue, feed, journal=None):
    return SlideBatcher(
        SurveillanceSystem(world, specs, CONFIG),
        queue,
        slide_seconds=CONFIG.window.slide_seconds,
        on_report=lambda report, kind: feed.append(slide_feed_line(report, kind)),
        journal=journal,
    )


def _letters(batcher):
    return [
        (letter.receive_time, letter.sentence, letter.reason)
        for letter in batcher.deadletter._letters
    ]


async def _serve(batcher):
    try:
        await batcher.run()
        await batcher.drain()
    finally:
        batcher.system.database.close()


def test_every_hand_over_size_gives_the_offline_feed_and_quarantine(
    world, small_fleet, stream
):
    specs = small_fleet["specs"]
    offline = offline_oracle(_data(stream), world, specs, CONFIG)
    letters = _per_line_deadletters(stream)
    assert letters and len(offline) > 4
    for size in range(1, len(stream) + 1):
        feed = []
        batcher = _batcher(world, specs, HandOver(stream, size), feed)
        with obs.activate(obs.MetricsRegistry()) as registry:
            asyncio.run(_serve(batcher))
        assert feed == offline, f"hand-over size {size}"
        assert _letters(batcher) == letters, f"hand-over size {size}"
        assert registry.counter("service.ingest.heartbeats").value == sum(
            parse_heartbeat(sentence) is not None for _, sentence in stream
        )


@pytest.mark.parametrize("size", [1, 6, 1000])
def test_crash_and_journal_replay_give_the_offline_feed(
    tmp_path, world, small_fleet, stream, size
):
    specs = small_fleet["specs"]
    offline = offline_oracle(_data(stream), world, specs, CONFIG)
    crashed_feed = []
    crashed = _batcher(
        world, specs, HandOver(stream, size), crashed_feed, IngestJournal(tmp_path)
    )
    with inject(FaultPlan.from_spec("service.slide:crash@3")):
        with pytest.raises(SimulatedCrash):
            asyncio.run(crashed.run())
    crashed.abort()
    crashed.system.database.close()
    assert crashed_feed == offline[: len(crashed_feed)]

    journal = IngestJournal(tmp_path)
    recovered = journal.recovered
    # The journal holds a prefix of the stream, heartbeats left out.
    journaled = [record for record in stream if parse_heartbeat(record[1]) is None]
    assert recovered == journaled[: len(recovered)]
    consumed = stream.index(recovered[-1]) + 1
    feed = []
    resumed = _batcher(world, specs, HandOver(stream[consumed:], size), feed, journal)

    async def recover():
        await resumed.replay(recovered)
        await _serve(resumed)

    asyncio.run(recover())
    assert feed == offline
    assert _letters(resumed) == _per_line_deadletters(stream)

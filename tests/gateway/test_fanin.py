"""Fan-in units: barrier merge order, dedup, dormancy and reattach, and
malformed lines counted without stopping the merge."""

import asyncio
import json

from hypothesis import given, settings, strategies as st

from repro.gateway.fanin import FeedFanIn
from repro.maritime.recognizer import Alert
from repro.obs.registry import MetricsRegistry
from repro.pipeline.metrics import SlideReport
from repro.service.protocol import feed_line, slide_feed_line
from repro.tracking.types import CriticalPoint, MovementEventType


def _line(qt, kind="slide", raw=0):
    return feed_line(kind, qt, raw, 0, 0, [], [])


def _full_line(qt):
    """A slide line with one alert and one critical point."""
    return slide_feed_line(SlideReport(
        query_time=qt,
        raw_positions=3,
        movement_events=1,
        fresh_critical_points=1,
        expired_critical_points=0,
        recognized_complex_events=1,
        alerts=(Alert("illegalShipping", "a1", qt - 30, None, 111, None),),
        timings={},
        fresh_points=(
            CriticalPoint(111, 23.5, 37.25, qt - 30,
                          frozenset({MovementEventType.TURN}), 4.0, 90.0, 0),
        ),
    ))


_NUMBER = (int, float)
_INT_OR_NULL = (int, type(None))
#: Each field of a feed line, where it sits (``None``: the line itself),
#: and the types it may hold; ``type`` holds one of two strings, so no
#: replacement below is a valid one.
_FIELDS = [
    (None, "type", ()),
    (None, "query_time", (int,)),
    (None, "raw_positions", (int,)),
    (None, "movement_events", (int,)),
    (None, "recognized", (int,)),
    (None, "alerts", (list,)),
    (None, "critical_points", (list,)),
    ("alerts", "kind", (str,)),
    ("alerts", "area", (str,)),
    ("alerts", "since", (int,)),
    ("alerts", "until", _INT_OR_NULL),
    ("alerts", "mmsi", _INT_OR_NULL),
    ("alerts", "mmsi2", _INT_OR_NULL),
    ("critical_points", "annotations", (list,)),
    ("critical_points", "duration_seconds", (int,)),
    ("critical_points", "heading_degrees", _NUMBER),
    ("critical_points", "lat", _NUMBER),
    ("critical_points", "lon", _NUMBER),
    ("critical_points", "mmsi", (int,)),
    ("critical_points", "speed_knots", _NUMBER),
    ("critical_points", "timestamp", (int,)),
]
_VALUES = [None, "x", 1.5, 2, True, [], {}, ["bogus"], [1]]


@st.composite
def _malformed_lines(draw, qt):
    """The line :func:`_full_line` writes at ``qt``, with one field
    dropped or given a value of a type it never holds."""
    payload = json.loads(_full_line(qt))
    where, key, types = draw(st.sampled_from(_FIELDS))
    record = payload if where is None else payload[where][0]
    if draw(st.booleans()):
        del record[key]
    else:
        record[key] = draw(
            st.sampled_from([v for v in _VALUES if type(v) not in types])
        )
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def _merge_one_source(lines):
    """What a fan-in over one source that sends ``lines`` emits, and its
    registry."""

    async def run():
        merged = []
        registry = MetricsRegistry()
        fanin = FeedFanIn(merged.append, registry=registry)
        source = ScriptedSession(lines)
        fanin.add_source("only", source)
        fanin.start()
        source.finish()
        fanin.begin_close()
        await asyncio.wait_for(fanin.wait_closed(), 5)
        return merged, registry

    return asyncio.run(run())


class ScriptedSession:
    """A TransportSession double fed from an asyncio queue."""

    def __init__(self, lines=()):
        self.queue: asyncio.Queue = asyncio.Queue()
        for item in lines:
            self.queue.put_nowait(item)
        self.closed = False

    def push(self, line) -> None:
        self.queue.put_nowait(line)

    def finish(self) -> None:
        self.queue.put_nowait(None)

    async def receive(self):
        return await self.queue.get()

    async def send(self, text: str) -> None:
        raise AssertionError("fan-in never sends")

    async def close(self) -> None:
        self.closed = True


async def _drain_loop() -> None:
    # A few scheduler round-trips so reader/merger tasks make progress.
    for _ in range(20):
        await asyncio.sleep(0)


class TestFeedFanIn:
    def test_barrier_merge_orders_by_query_time(self):
        async def run():
            lines = []
            fanin = FeedFanIn(lines.append, registry=MetricsRegistry())
            a = ScriptedSession([_line(60, raw=1), _line(120, raw=1),
                                 _line(180, "finalize")])
            b = ScriptedSession([_line(120, raw=2), _line(180, "finalize")])
            fanin.add_source("a", a)
            fanin.add_source("b", b)
            fanin.start()
            a.finish()
            b.finish()
            fanin.begin_close()
            await asyncio.wait_for(fanin.wait_closed(), 5)
            return lines

        lines = asyncio.run(run())
        payloads = [json.loads(line) for line in lines]
        assert [(p["query_time"], p["type"]) for p in payloads] == [
            (60, "slide"), (120, "slide"), (180, "finalize"),
        ]
        # The 120 line merged both sources' counters.
        assert payloads[1]["raw_positions"] == 3

    def test_slow_source_blocks_rather_than_reorders(self):
        async def run():
            lines = []
            fanin = FeedFanIn(lines.append, registry=MetricsRegistry())
            fast = ScriptedSession([_line(60), _line(120)])
            slow = ScriptedSession()
            fanin.add_source("fast", fast)
            fanin.add_source("slow", slow)
            fanin.start()
            await _drain_loop()
            held = list(lines)
            slow.push(_line(60))
            slow.push(_line(120))
            fast.finish()
            slow.finish()
            fanin.begin_close()
            await asyncio.wait_for(fanin.wait_closed(), 5)
            return held, lines

        held, lines = asyncio.run(run())
        assert held == []  # nothing emitted while one source was silent
        assert [json.loads(line)["query_time"] for line in lines] == [60, 120]

    def test_crashed_source_goes_dormant_and_reattach_resumes(self):
        async def run():
            lines = []
            registry = MetricsRegistry()
            fanin = FeedFanIn(lines.append, registry=registry)
            steady = ScriptedSession([_line(60)])
            flaky = ScriptedSession([_line(60)])
            fanin.add_source("steady", steady)
            fanin.add_source("flaky", flaky)
            fanin.start()
            await _drain_loop()
            # The flaky runtime dies mid-stream: EOF without begin_close.
            flaky.finish()
            steady.push(_line(120))
            await _drain_loop()
            down = list(fanin.down_sources)
            held = len(lines)
            # Restarted runtime reattaches, replaying its last slide.
            replacement = ScriptedSession([_line(60), _line(120)])
            fanin.add_source("flaky", replacement)
            steady.finish()
            replacement.finish()
            fanin.begin_close()
            await asyncio.wait_for(fanin.wait_closed(), 5)
            return lines, down, held, registry

        lines, down, held, registry = asyncio.run(run())
        assert down == ["flaky"]
        assert held == 1  # only the 60 line made it out pre-crash
        assert [json.loads(line)["query_time"] for line in lines] == [60, 120]
        # The replayed 60 line was recognized as a duplicate, not merged.
        assert registry.counter("gateway.fanin.duplicate_lines").value == 1
        assert registry.counter("gateway.fanin.source_losses").value == 1

    def test_a_crashed_sessions_end_read_during_the_drain_is_not_final(self):
        """The merger can still be waiting on another source when the
        drain begins, with a crashed session's end queued ahead of its
        replacement's lines: that end must not retire the source."""

        async def run():
            lines = []
            registry = MetricsRegistry()
            fanin = FeedFanIn(lines.append, registry=registry)
            steady = ScriptedSession([_line(60, raw=1)])
            flaky = ScriptedSession([_line(60, raw=2)])
            fanin.add_source("steady", steady)
            fanin.add_source("flaky", flaky)
            fanin.start()
            await _drain_loop()
            # The merger now waits on steady; flaky's crash stays queued.
            flaky.finish()
            replacement = ScriptedSession(
                [_line(60, raw=2), _line(120, raw=2), _line(180, "finalize")]
            )
            fanin.add_source("flaky", replacement)
            replacement.finish()
            await _drain_loop()
            fanin.begin_close()
            steady.push(_line(120, raw=1))
            steady.push(_line(180, "finalize"))
            steady.finish()
            await asyncio.wait_for(fanin.wait_closed(), 5)
            return lines, registry

        lines, registry = asyncio.run(run())
        payloads = [json.loads(line) for line in lines]
        assert [(p["query_time"], p["type"], p["raw_positions"])
                for p in payloads] == [
            (60, "slide", 3), (120, "slide", 3), (180, "finalize", 0),
        ]
        assert registry.counter("gateway.fanin.source_losses").value == 1

    def test_the_drain_waits_for_a_reattached_source_still_silent(self):
        """A source that went dormant and was reattached, but has sent
        nothing yet when the drain begins, still ends its own stream."""

        async def run():
            lines = []
            fanin = FeedFanIn(lines.append, registry=MetricsRegistry())
            steady = ScriptedSession([_line(60, raw=1)])
            flaky = ScriptedSession([_line(60, raw=2)])
            fanin.add_source("steady", steady)
            fanin.add_source("flaky", flaky)
            fanin.start()
            await _drain_loop()
            flaky.finish()
            steady.push(_line(120, raw=1))
            await _drain_loop()
            assert fanin.down_sources == ["flaky"]
            replacement = ScriptedSession()
            fanin.add_source("flaky", replacement)
            fanin.begin_close()
            await _drain_loop()
            replacement.push(_line(120, raw=2))
            replacement.finish()
            steady.finish()
            await asyncio.wait_for(fanin.wait_closed(), 5)
            return lines

        lines = asyncio.run(run())
        assert [(json.loads(line)["query_time"],
                 json.loads(line)["raw_positions"]) for line in lines] == [
            (60, 3), (120, 3),
        ]

    def test_bad_lines_are_counted_not_fatal(self):
        lines, registry = _merge_one_source([
            "not json", json.dumps({"type": "bogus"}), _line(60),
        ])
        assert [json.loads(line)["query_time"] for line in lines] == [60]
        assert registry.counter("gateway.fanin.bad_lines").value == 2

    def test_a_line_missing_fields_is_counted_and_later_lines_merge(self):
        # Before the fan-in checked whole lines, this line passed the
        # type and query-time check, and the merger died on its missing
        # alerts: the merged stream stopped at 60.
        lines = [_line(60), '{"type":"slide","query_time":120}',
                 _line(180), _line(240)]
        merged, registry = _merge_one_source(lines)
        assert merged == [lines[0], lines[2], lines[3]]
        assert registry.counter("gateway.fanin.bad_lines").value == 1

    @settings(max_examples=100, deadline=None)
    @given(bad=_malformed_lines(120))
    def test_a_dropped_or_mistyped_field_is_a_counted_bad_line(self, bad):
        lines = [_full_line(60), bad, _full_line(180), _full_line(240)]
        merged, registry = _merge_one_source(lines)
        assert merged == [lines[0], lines[2], lines[3]]
        assert registry.counter("gateway.fanin.bad_lines").value == 1

"""Resumable subscriptions: the RESUME handshake, the replay ring, and
the reconnecting feed reader.

The contract under test (docs/SERVICE.md): a subscriber that never
sends a handshake sees the classic unstamped feed byte for byte; one
that opens with ``RESUME <last-seq>`` is switched to stamped
``<seq>\\t<payload>`` delivery starting with every ring-held line after
``last-seq`` — so an evicted or disconnected consumer reconnects and
recovers the gap, and any lines the bounded ring already evicted are
counted, never silently skipped."""

import asyncio

import pytest

from repro import obs
from repro.service.feed import FeedHub
from repro.service.feedclient import ResumableFeedReader
from repro.service.protocol import (
    format_resume,
    format_stamped_line,
    parse_resume,
    parse_stamped_line,
)
from repro.resilience.retry import BackoffPolicy
from repro.transport import create_transport

FAST_RECONNECT = BackoffPolicy(
    initial_seconds=0.01, multiplier=1.0, max_seconds=0.01, max_attempts=5
)


class TestWireFormat:
    def test_resume_roundtrip(self):
        assert parse_resume(format_resume(0)) == 0
        assert parse_resume(format_resume(41)) == 41

    def test_resume_rejects_garbage_and_negatives(self):
        assert parse_resume("RESUME") is None
        assert parse_resume("RESUME x") is None
        assert parse_resume("RESUME -1") is None
        assert parse_resume('{"type":"slide"}') is None

    def test_format_resume_rejects_negative(self):
        with pytest.raises(ValueError):
            format_resume(-1)

    def test_stamped_roundtrip(self):
        line = format_stamped_line(7, '{"alerts":[]}')
        assert line == '7\t{"alerts":[]}'
        assert parse_stamped_line(line) == (7, '{"alerts":[]}')

    def test_stamped_payload_may_contain_tabs(self):
        seq, payload = parse_stamped_line(format_stamped_line(3, "a\tb"))
        assert (seq, payload) == (3, "a\tb")

    def test_unstamped_lines_parse_to_none(self):
        assert parse_stamped_line('{"alerts":[]}') is None
        assert parse_stamped_line("0\tpayload") is None
        assert parse_stamped_line("-2\tpayload") is None


async def _subscribe(host, port, transport_name="tcp", resume=None):
    """One feed subscriber session, optionally sending the handshake."""
    transport = create_transport(transport_name)
    session = await transport.connect(host, port, "feed")
    if resume is not None:
        await session.send(format_resume(resume))
    return session


async def _drain(session, count):
    lines = []
    while len(lines) < count:
        line = await session.receive()
        if line is None:
            break
        lines.append(line)
    return lines


class TestResumeHandshake:
    @pytest.mark.parametrize(
        "transport_name", ("tcp", "websocket", "chaos+tcp")
    )
    def test_resume_zero_replays_the_whole_ring_stamped(
        self, transport_name
    ):
        async def run():
            hub = FeedHub(
                "127.0.0.1", 0,
                transport=create_transport(transport_name),
            )
            await hub.start()
            for index in range(3):
                hub.publish(f"line-{index}")
            session = await _subscribe(
                "127.0.0.1", hub.port, transport_name, resume=0
            )
            lines = await _drain(session, 3)
            await session.close()
            await hub.close()
            return lines

        assert asyncio.run(run()) == [
            f"{seq}\tline-{seq - 1}" for seq in (1, 2, 3)
        ]

    def test_silent_subscriber_gets_classic_unstamped_bytes(self):
        """Resumability is opt-in: without the handshake the feed's
        byte-identity contract is untouched."""
        async def run():
            hub = FeedHub("127.0.0.1", 0)
            await hub.start()
            session = await _subscribe("127.0.0.1", hub.port)
            while hub.subscriber_count < 1:
                await asyncio.sleep(0.005)
            hub.publish("plain")
            lines = await _drain(session, 1)
            await session.close()
            await hub.close()
            return lines

        assert asyncio.run(run()) == ["plain"]

    def test_resume_mid_stream_replays_only_the_gap(self):
        async def run():
            hub = FeedHub("127.0.0.1", 0)
            await hub.start()
            for index in range(5):
                hub.publish(f"line-{index}")
            session = await _subscribe("127.0.0.1", hub.port, resume=3)
            lines = await _drain(session, 2)
            await session.close()
            await hub.close()
            return lines, hub.resumed_count

        lines, resumed = asyncio.run(run())
        assert lines == ["4\tline-3", "5\tline-4"]
        assert resumed == 1

    def test_ring_evicted_lines_are_counted_as_gap(self):
        """A consumer that stayed away longer than the ring is honest
        about it: the unrecoverable lines are counted, the survivors
        still replay."""
        async def run():
            with obs.activate(obs.MetricsRegistry()) as registry:
                hub = FeedHub("127.0.0.1", 0, replay_ring=4)
                await hub.start()
                for index in range(10):
                    hub.publish(f"line-{index}")
                session = await _subscribe("127.0.0.1", hub.port, resume=0)
                lines = await _drain(session, 4)
                await session.close()
                await hub.close()
                gap = registry.counter(
                    "service.feed.resume_gap_lines"
                ).value
                return lines, gap

        lines, gap = asyncio.run(run())
        assert lines == [f"{seq}\tline-{seq - 1}" for seq in (7, 8, 9, 10)]
        assert gap == 6

    def test_bad_handshake_is_counted_and_ignored(self):
        async def run():
            with obs.activate(obs.MetricsRegistry()) as registry:
                hub = FeedHub("127.0.0.1", 0)
                await hub.start()
                session = await create_transport("tcp").connect(
                    "127.0.0.1", hub.port, "feed"
                )
                await session.send("NOT A HANDSHAKE")
                while not registry.counter(
                    "service.feed.bad_handshakes"
                ).value:
                    await asyncio.sleep(0.005)
                hub.publish("still-served")
                lines = await _drain(session, 1)
                await session.close()
                await hub.close()
                return lines

        # The subscriber stays on the classic unstamped feed.
        assert asyncio.run(run()) == ["still-served"]

    def test_replay_ring_must_hold_at_least_one_line(self):
        with pytest.raises(ValueError, match="replay_ring"):
            FeedHub("127.0.0.1", 0, replay_ring=0)


class TestEvictionThenResume:
    def test_evicted_slow_consumer_recovers_the_gap(self):
        """The satellite scenario end to end: a subscriber too slow for
        its queue is evicted mid-stream, reconnects with ``RESUME
        <last-seq>``, and receives exactly the lines it missed."""
        async def scenario():
            hub = FeedHub("127.0.0.1", 0, queue_size=2)
            await hub.start()
            hub.publish("line-0")
            session = await _subscribe("127.0.0.1", hub.port, resume=0)
            line = (await _drain(session, 1))[0]
            assert line == "1\tline-0"
            for index in range(1, 8):
                hub.publish(f"line-{index}")
            while hub.evicted_count < 1:
                await asyncio.sleep(0.005)
            await session.close()
            session = await _subscribe("127.0.0.1", hub.port, resume=1)
            recovered = await _drain(session, 7)
            await session.close()
            await hub.close()
            return recovered

        recovered = asyncio.run(scenario())
        assert recovered == [
            f"{seq}\tline-{seq - 1}" for seq in range(2, 9)
        ]


class TestResumableFeedReader:
    def test_survives_eviction_gapless(self):
        """The reader yields every payload exactly once across a forced
        eviction — reconnect, RESUME, ring replay, dedup."""
        async def scenario():
            hub = FeedHub("127.0.0.1", 0, queue_size=2)
            await hub.start()
            reader = ResumableFeedReader(
                "tcp", "127.0.0.1", hub.port, policy=FAST_RECONNECT
            )
            received: list[str] = []

            async def consume():
                async for payload in reader.lines():
                    received.append(payload)

            consumer = asyncio.ensure_future(consume())
            while hub.subscriber_count < 1:
                await asyncio.sleep(0.005)
            hub.publish("line-0")
            while len(received) < 1:
                await asyncio.sleep(0.005)
            # Evict the live subscriber; the ring keeps what it missed.
            for subscriber in list(hub._subscribers):
                hub._evict(subscriber)
            for index in range(1, 6):
                hub.publish(f"line-{index}")
            while len(received) < 6:
                await asyncio.sleep(0.005)
            await hub.close()
            reader.stop()
            consumer.cancel()
            try:
                await consumer
            except asyncio.CancelledError:
                pass
            return received, reader.reconnects, reader.last_seq

        received, reconnects, last_seq = asyncio.run(scenario())
        assert received == [f"line-{index}" for index in range(6)]
        assert reconnects == 1
        assert last_seq == 6

    def test_gives_up_after_the_dial_budget(self):
        async def scenario():
            # Nothing listens on port 1.
            reader = ResumableFeedReader(
                "tcp", "127.0.0.1", 1, policy=FAST_RECONNECT
            )
            return [payload async for payload in reader.lines()]

        assert asyncio.run(scenario()) == []

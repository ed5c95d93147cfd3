"""A live slide publishes its feed line before its archive runs.

The batcher closes a slide (track, compress, recognize), publishes its
line, and stages and reconstructs the slide's expired points in the MOD
only at its next hand-over, slide or drain.  These cases pin the three
halves of that promise: the line does not wait for the archive, no
archive is lost on the way, and a wedged archive is still a stall the
watchdog counts.
"""

import asyncio
import json
import threading

import pytest

from repro import obs
from repro.pipeline.system import SurveillanceSystem
from repro.service import ServiceConfig, ServiceSupervisor
from repro.simulator import FleetSimulator
from tests.parity import (
    EPHEMERAL,
    KeepsItsMod,
    mod_contents,
    offline_oracle,
    offline_replay,
    poll,
    run_live,
    send_sentences,
    tap_feed,
)
from tests.service.conftest import to_sentences

#: Seconds a test waits for a feed line that must not wait for the MOD.
LINE_TIMEOUT = 10.0


@pytest.fixture(scope="module")
def trip_fleet(world):
    """A fleet long enough at sea to close trips in the MOD."""
    simulator = FleetSimulator(world, seed=99, duration_seconds=8 * 3600)
    fleet = simulator.build_mixed_fleet(12)
    return {
        "specs": {vessel.mmsi: vessel.spec for vessel in fleet},
        "sentences": to_sentences(simulator.positions(fleet)),
    }


class ArchiveWedgedUntilReleased(SurveillanceSystem):
    """The first slide's archive blocks until the test sets ``released``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.released = threading.Event()
        self.wedged = threading.Event()
        self.closed: list[int] = []

    def close_slide(self, query_time):
        self.closed.append(query_time)
        return super().close_slide(query_time)

    def archive_touches_mod(self):
        return True  # the wedge stands in for a stuck sqlite call

    def archive(self):
        if not self.wedged.is_set():
            self.wedged.set()
            if not self.released.wait(timeout=30.0):
                raise RuntimeError("the test never released the archive")
        super().archive()


def _query_time(line: str) -> int:
    return json.loads(line)["query_time"]


def test_the_line_does_not_wait_for_the_archive(world, trip_fleet):
    specs, sentences = trip_fleet["specs"], trip_fleet["sentences"]

    async def scenario():
        supervisor = ServiceSupervisor(
            world, specs, service=ServiceConfig(**EPHEMERAL),
            system_factory=ArchiveWedgedUntilReleased,
        )
        system = supervisor.system
        await supervisor.start()
        ports = supervisor.ports()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ports["feed"], limit=1 << 24
        )
        await poll(lambda: supervisor.feed.subscriber_count == 1)
        await send_sentences(ports["ingest"], sentences)
        # Read before the first slide's archive can finish, which it
        # does only once released: had the line waited, this times out.
        first = await asyncio.wait_for(reader.readline(), LINE_TIMEOUT)
        held = (list(system.closed), system.timings.slides)
        system.released.set()
        await poll(lambda: supervisor.ingest.open_connections == 0)
        await supervisor.drain_and_stop()
        rest = await reader.read()
        writer.close()
        return supervisor, first.decode() + rest.decode(), held

    supervisor, feed, (closed, recorded) = asyncio.run(scenario())
    lines = feed.splitlines()
    # The line read was the held slide's, no later slide had closed and
    # the slide was not yet recorded: its archive had not finished.
    assert closed == [_query_time(lines[0])]
    assert recorded == 0
    assert supervisor.batcher.pipeline_errors == 0
    assert lines == offline_oracle(sentences, world, specs)


def test_a_live_node_archives_what_the_offline_replay_does(world, trip_fleet):
    specs, sentences = trip_fleet["specs"], trip_fleet["sentences"]
    supervisor, feed = asyncio.run(
        run_live(sentences, world, specs, system_factory=KeepsItsMod)
    )
    assert feed == offline_oracle(sentences, world, specs)
    with offline_replay(sentences, world, specs) as offline:
        expected = mod_contents(offline.database)
        timings = offline.timings
    live = supervisor.system
    assert expected["trips"] and expected["staging"]
    assert live.mod == expected
    assert live.timings.slides == timings.slides
    assert list(live.timings.seconds) == list(timings.seconds)


def test_a_wedged_archive_is_a_counted_stall_after_its_line(
    world, small_fleet, soak_sentences
):
    specs = small_fleet["specs"]

    async def scenario():
        supervisor = ServiceSupervisor(
            world, specs, service=ServiceConfig(**EPHEMERAL),
            system_factory=ArchiveWedgedUntilReleased,
        )
        supervisor.batcher.watchdog.timeout_seconds = 0.05
        published = tap_feed(supervisor)
        await supervisor.start()
        await send_sentences(supervisor.ports()["ingest"], soak_sentences)
        await poll(lambda: supervisor.batcher.watchdog.stalls_detected >= 1)
        stalled = (list(published), supervisor.health()["watchdog"])
        supervisor.system.released.set()
        await supervisor.drain_and_stop()
        return supervisor, published, stalled

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor, published, (before, watchdog) = asyncio.run(scenario())

    # The stall was the held archive's slide, whose line was already out.
    (wedged,) = supervisor.system.closed[:1]
    assert watchdog["slide_running"]
    assert watchdog["current_query_time"] == wedged
    assert [_query_time(line) for line in before] == [wedged]
    assert watchdog["stalls_detected"] == 1
    assert registry.snapshot()["counters"]["resilience.watchdog.stalls"] == 1
    # Archive beats are watched but not counted as slides.
    batcher = supervisor.batcher
    assert batcher.watchdog.slides_seen == batcher.slides_processed
    # The stall cost time, not output.
    assert supervisor.batcher.pipeline_errors == 0
    assert not supervisor.forced_abort
    assert published == offline_oracle(soak_sentences, world, specs)

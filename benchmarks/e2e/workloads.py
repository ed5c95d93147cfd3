"""One pass of each workload kind: fresh system in, segment ratios out.

Every pass builds its own system, hands it the same deterministic input
segment by segment (:class:`timing.SegmentRecorder` calibrates before
each), collects the feed lines and tears the system down.  Building the
system is not timed; everything between *input handed over* and *feed
line in hand* is, including the final drain.

The live passes are **closed loops**, on purpose: the driver writes a
segment, then waits — for the ingest to be observably complete, or for
the slide's feed line to arrive on the subscriber socket — before it
writes the next.  Driver and system share one event loop and never run
at the same time, so on this 2-core host the process does not contend
with itself, and a slower system is not handed less work per pass.  A
paced open loop at the simulator's rate would be >90 % idle time.
"""

import asyncio
import time
from dataclasses import dataclass

from repro.gateway import GatewayCluster, GatewayClusterConfig
from repro.pipeline import SurveillanceSystem
from repro.service import ServiceConfig, ServiceSupervisor
from repro.service.protocol import slide_feed_line

from inputs import BenchInput
from timing import SegmentRecorder

#: Seconds a live pass waits for one expected event before giving up;
#: the feed lines still due are then counted as failed.
STEP_TIMEOUT_S = 60.0

#: Interval at which an ingest segment checks whether the system has
#: taken in everything written.
_POLL_S = 0.0005

#: Read limit of the subscriber socket: a slide line carries every fresh
#: critical point and easily passes asyncio's 64 KiB default.
_FEED_READ_LIMIT = 1 << 24

HOST = "127.0.0.1"

#: The scale-out topology `live_cluster` measures.
CLUSTER = GatewayClusterConfig(gateways=2, runtimes=4)


@dataclass
class PassResult:
    """What one pass measured and produced."""

    recorder: SegmentRecorder
    lines: list[str]
    #: Sentences shed by a bounded queue (ingest queue, gateway links).
    shed: int = 0
    #: The live system, torn down: its registries outlive the pass.
    system: object = None


def count_failed(lines: list[str], reference: list[str]) -> int:
    """Feed lines missing, unexpected, or not byte-identical."""
    wrong = sum(1 for got, want in zip(lines, reference) if got != want)
    return wrong + abs(len(reference) - len(lines))


def replay_pass(data: BenchInput) -> PassResult:
    """One inline replay: a segment per slide, then ``finalize``."""
    recorder = SegmentRecorder()
    system = SurveillanceSystem(data.world, data.specs, data.workload.config)
    lines = []
    try:
        for query_time, batch in data.batches:
            with recorder.segment():
                lines.append(
                    slide_feed_line(system.process_slide(batch, query_time))
                )
        with recorder.segment():
            lines.append(slide_feed_line(system.finalize(), "finalize"))
    finally:
        system.database.close()
    return PassResult(recorder, lines)


class LiveNode:
    """One :class:`ServiceSupervisor` on ephemeral ports, no WAL."""

    def __init__(self, data: BenchInput):
        self.supervisor = ServiceSupervisor(
            data.world,
            data.specs,
            data.workload.config,
            ServiceConfig(ingest_port=0, feed_port=0, http_port=0),
        )

    async def start(self) -> None:
        await self.supervisor.start()

    @property
    def feed(self):
        return self.supervisor.feed

    def ingest_ports(self) -> list[int]:
        return [self.supervisor.ingest.port]

    def ingested(self, written: int) -> bool:
        """Every written sentence has left the ingest queue."""
        queue = self.supervisor.queue
        return queue.put_count == written and len(queue) == 0

    def shed(self) -> int:
        return self.supervisor.queue.shed_count

    async def stop(self) -> None:
        await self.supervisor.drain_and_stop()


class LiveCluster:
    """A :class:`GatewayCluster` of 2 gateways x 4 runtimes over TCP."""

    def __init__(self, data: BenchInput):
        self.cluster = GatewayCluster(
            data.world,
            data.specs,
            data.workload.config,
            CLUSTER,
        )

    async def start(self) -> None:
        await self.cluster.start()

    @property
    def feed(self):
        return self.cluster.aggregator.hub

    def ingest_ports(self) -> list[int]:
        return [node.port for node in self.cluster.nodes]

    def ingested(self, written: int) -> bool:
        """Every written sentence was forwarded, and every line the
        gateways queued (sentences, plus each watermark once per
        runtime) has arrived at a runtime and left its ingest queue.
        Exact, unlike "all depths zero", which is also true while a line
        sits in a socket buffer between a link and its runtime."""
        supervisors = self.cluster.supervisors
        forwarded = queued = 0
        for node in self.cluster.nodes:
            lines = node.registry.counter("gateway.ingest.lines").value
            watermarks = node.registry.counter("gateway.watermarks").value
            forwarded += lines
            queued += lines + watermarks * len(supervisors)
        return (
            forwarded == written
            and sum(s.queue.put_count for s in supervisors) == queued
            and all(len(s.queue) == 0 for s in supervisors)
        )

    def shed(self) -> int:
        return int(
            sum(s.queue.shed_count for s in self.cluster.supervisors)
            + sum(
                node.registry.counter("gateway.link.shed").value
                for node in self.cluster.nodes
            )
        )

    async def stop(self) -> None:
        await self.cluster.drain_and_stop()


LIVE_SYSTEMS = {"node": LiveNode, "cluster": LiveCluster}


async def _until(predicate) -> None:
    deadline = time.monotonic() + STEP_TIMEOUT_S
    while not predicate():
        if time.monotonic() > deadline:
            raise asyncio.TimeoutError
        await asyncio.sleep(_POLL_S)


async def _read_line(reader) -> str | None:
    raw = await asyncio.wait_for(reader.readline(), STEP_TIMEOUT_S)
    return raw.decode("utf-8").rstrip("\n") if raw else None


async def _live_pass(system, data: BenchInput) -> PassResult:
    recorder = SegmentRecorder()
    lines: list[str] = []
    written = 0
    stopped = False
    await system.start()
    feed_reader, feed_writer = await asyncio.open_connection(
        HOST, system.feed.port, limit=_FEED_READ_LIMIT
    )
    loads = []
    try:
        await _until(lambda: system.feed.subscriber_count == 1)
        for port in system.ingest_ports():
            loads.append(await asyncio.open_connection(HOST, port))
        for segment in data.segments:
            with recorder.segment():
                if segment.kind == "drain":
                    for _, writer in loads:
                        writer.close()
                        await writer.wait_closed()
                    stopped = True
                    await system.stop()
                for (_, writer), payload in zip(loads, segment.writes):
                    if payload:
                        writer.write(payload)
                        await writer.drain()
                written += segment.lines
                if segment.kind == "ingest":
                    await _until(lambda: system.ingested(written))
                for _ in range(segment.feed_lines):
                    line = await _read_line(feed_reader)
                    if line is not None:
                        lines.append(line)
        # Anything after the finalize line is a line nobody expected.
        while (line := await _read_line(feed_reader)) is not None:
            lines.append(line)
    except asyncio.TimeoutError:
        pass  # the lines still due are missing: count_failed reports them
    finally:
        shed = system.shed()
        feed_writer.close()
        if not stopped:
            for _, writer in loads:
                writer.close()
            await system.stop()
    return PassResult(recorder, lines, shed, system)


def live_pass(data: BenchInput) -> PassResult:
    """One closed-loop pass over TCP against a freshly started system."""
    system = LIVE_SYSTEMS[data.workload.kind](data)
    return asyncio.run(_live_pass(system, data))


def run_pass(data: BenchInput) -> PassResult:
    if data.workload.kind == "replay":
        return replay_pass(data)
    return live_pass(data)


def first_start(data: BenchInput) -> None:
    """Set-up's last step: build and start the system once, empty."""
    if data.workload.kind == "replay":
        SurveillanceSystem(
            data.world, data.specs, data.workload.config
        ).database.close()
        return

    async def start_stop():
        system = LIVE_SYSTEMS[data.workload.kind](data)
        await system.start()
        await system.stop()

    asyncio.run(start_stop())

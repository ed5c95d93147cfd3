"""One parity matrix: every deployment cuts the offline replay's slides.

The window keeps pace with the *reported* timestamps (Section 5), so a
slide holds every position stamped inside it, whatever order the sockets
delivered them in.  Four deployments run the same sentences — the slide
batcher fed by a hand-over queue, one node over TCP, one node over two
TCP connections that each carry every other sentence of every vessel,
and a 2-gateway × 4-runtime cluster over TCP — on two streams: the small
fleet's stream in timestamp order, and the same stream with same-vessel
pairs swapped inside a slide (two receivers, or two clients, whose lines
interleave).  Every cell must equal the offline replay
(:func:`tests.parity.offline_oracle`) byte for byte.  The nodes and the
cluster's shards track each slide on arrival; the columns assert that
they did, and where a time-ordered stream must roll nothing back.
"""

import asyncio

import pytest

from repro import obs
from repro.ais.nmea import unwrap_aivdm
from repro.ais.scanner import DataScanner
from repro.gateway import GatewayCluster, GatewayClusterConfig
from repro.pipeline.config import SystemConfig
from repro.pipeline.system import SurveillanceSystem
from repro.service import ServiceConfig, ServiceSupervisor
from repro.service.batcher import SlideBatcher
from repro.service.protocol import slide_feed_line
from tests.gateway.conftest import split_round_robin
from tests.parity import (
    EPHEMERAL,
    HandOver,
    offline_oracle,
    poll,
    run_cluster,
    run_live,
    subscribe,
)
from tests.service.conftest import to_sentences

#: Vessel scope, so the cluster is exact (docs/GATEWAY.md), and the
#: default 10-minute slides: inside a one-minute slide a vessel's first
#: and last reports are too close for their swap to change any line.
CONFIG = SystemConfig(ce_scope="vessel")

#: Same-vessel pairs swapped in the disordered stream, one per slide.
SWAPS = 12


def swap_within_slides(sentences, slide_seconds: int, swaps: int) -> list:
    """``sentences`` with ``swaps`` same-vessel pairs swapped: in each of
    ``swaps`` slides spread over the stream, one vessel's first and last
    single-fragment report of the slide trade places."""
    slide_of = [-(-receive_time // slide_seconds) for receive_time, _ in sentences]
    scanner = DataScanner()
    reports: dict[tuple[int, int], list[int]] = {}
    for index, record in enumerate(sentences):
        positions = scanner.scan_many([record])
        if positions and unwrap_aivdm(record[1]).fragment_count == 1:
            key = (slide_of[index], positions[0].mmsi)
            reports.setdefault(key, []).append(index)
    stride = max(1, (slide_of[-1] - slide_of[0]) // swaps)
    pairs, next_slide = [], slide_of[0]
    for (slide, _), indices in sorted(reports.items()):
        earliest, latest = sentences[indices[0]][0], sentences[indices[-1]][0]
        if slide >= next_slide and earliest < latest and len(pairs) < swaps:
            pairs.append((indices[0], indices[-1]))
            next_slide = slide + stride
    assert len(pairs) == swaps, "the stream has too few same-vessel pairs"
    swapped = list(sentences)
    for first, last in pairs:
        swapped[first], swapped[last] = swapped[last], swapped[first]
    return swapped


@pytest.fixture(scope="module")
def streams(small_fleet):
    in_order = to_sentences(small_fleet["stream"], fragment_every=40)
    return {
        "in_order": in_order,
        "disordered": swap_within_slides(
            in_order, CONFIG.window.slide_seconds, SWAPS
        ),
    }


def hand_over(sentences, world, specs) -> list[str]:
    """The slide batcher alone, handed seven sentences at a time."""
    feed = []
    batcher = SlideBatcher(
        SurveillanceSystem(world, specs, CONFIG),
        HandOver(sentences, 7),
        slide_seconds=CONFIG.window.slide_seconds,
        on_report=lambda report, kind: feed.append(slide_feed_line(report, kind)),
    )

    async def serve():
        await batcher.run()
        await batcher.drain()

    try:
        asyncio.run(serve())
    finally:
        batcher.system.database.close()
    return feed


def node(sentences, world, specs) -> list[str]:
    """One node over TCP, its feed read from the socket."""
    _, lines = asyncio.run(run_live(sentences, world, specs, CONFIG))
    return lines


def deal_vessels_alternately(sentences, slide_seconds: int) -> list:
    """Per slide, ``(first, second)``: the slide's sentences with each
    vessel's reports dealt alternately to two connections (a fragment
    group stays whole)."""
    scanner = DataScanner()
    turn: dict[int, int] = {}
    slides: dict[int, tuple[list, list]] = {}
    group: list = []
    for record in sentences:
        group.append(record)
        positions = scanner.scan_many([record])
        if not positions:
            continue  # the group's first fragment
        mmsi = positions[0].mmsi
        turn[mmsi] = 1 - turn.get(mmsi, 1)
        slide = -(-record[0] // slide_seconds)
        slides.setdefault(slide, ([], []))[turn[mmsi]].extend(group)
        group = []
    return [slides[slide] for slide in sorted(slides)]


def node_two_connections(sentences, world, specs) -> list[str]:
    """One node fed over two TCP connections, each vessel's reports
    alternating between them.  Per slide the first connection's share
    is ingested before the second's, so every vessel that reports
    thrice in a slide arrives out of order: tracking on arrival must
    roll it back, and does (``tracking.arrival_rollbacks``), and then
    leaves the slides that follow to the close
    (``tracking.arrival_skipped_slides``)."""

    async def run():
        supervisor = ServiceSupervisor(
            world, specs, CONFIG, ServiceConfig(**EPHEMERAL)
        )
        await supervisor.start()
        ports = supervisor.ports()
        feed = await subscribe(ports["feed"])
        await poll(lambda: supervisor.feed.subscriber_count == 1)
        writers = [
            (await asyncio.open_connection("127.0.0.1", ports["ingest"]))[1]
            for _ in range(2)
        ]
        written = 0
        for shares in deal_vessels_alternately(
            sentences, CONFIG.window.slide_seconds
        ):
            for writer, share in zip(writers, shares):
                writer.write(b"".join(
                    f"{receive_time}\t{sentence}\n".encode("ascii")
                    for receive_time, sentence in share
                ))
                await writer.drain()
                written += len(share)
                await poll(
                    lambda count=written: supervisor.queue.put_count == count
                )
        for writer in writers:
            writer.close()
            await writer.wait_closed()
        await poll(lambda: supervisor.ingest.open_connections == 0)
        await supervisor.drain_and_stop()
        return await feed

    with obs.activate(obs.MetricsRegistry()) as registry:
        lines = asyncio.run(run())
    assert registry.counter("tracking.arrival_rollbacks").value > 0, (
        "no vessel was rolled back: the rollback path did not run"
    )
    assert registry.counter("tracking.arrival_skipped_slides").value > 0, (
        "every slide was tracked on arrival despite the rollbacks"
    )
    return lines


def cluster(sentences, world, specs) -> list[str]:
    """2 gateways × 4 runtimes over TCP, the merged feed.  The shards
    track on arrival, behind their gateways' watermarks; a
    time-ordered stream never overtakes what they tracked, so nothing
    rolls back (``tracking.arrival_rollbacks``)."""

    async def run():
        deployment = GatewayCluster(
            world, specs, CONFIG, GatewayClusterConfig(gateways=2, runtimes=4)
        )
        await run_cluster(deployment, split_round_robin(sentences, 2))
        return deployment.merged_lines

    with obs.activate(obs.MetricsRegistry()) as registry:
        lines = asyncio.run(run())
    assert registry.span_histogram("tracking.arrival").count > 0, (
        "no shard tracked on arrival"
    )
    if all(a[0] <= b[0] for a, b in zip(sentences, sentences[1:])):
        assert registry.counter("tracking.arrival_rollbacks").value == 0
    return lines


@pytest.mark.parametrize("stream", ["in_order", "disordered"])
@pytest.mark.parametrize(
    "deployment", [hand_over, node, node_two_connections, cluster]
)
def test_every_deployment_equals_the_offline_replay(
    deployment, stream, streams, world, small_fleet
):
    sentences = streams[stream]
    specs = small_fleet["specs"]
    assert deployment(sentences, world, specs) == offline_oracle(
        sentences, world, specs, CONFIG
    )

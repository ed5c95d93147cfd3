"""The one transcript builder and offline oracle behind every byte-parity
suite, and the live drivers the service, recovery and gateway suites
share: :func:`send_sentences`, :func:`subscribe`, :func:`tap_feed`,
:func:`tap_ingest`, :func:`run_live`, :func:`gateway_records`,
:func:`first_watermark_at`, :func:`run_shard`, :func:`feed_gateways`,
:func:`quiesce`, :func:`run_cluster` and the :class:`HandOver` queue
stand-in.

A transcript is everything a system emits over a stream — per-slide
reports, the finalize report, the final synopsis, the latest alerts and
the archived trips — in *canonical form*: critical points go through
:func:`repro.service.protocol.point_to_dict`, which sorts the annotation
set exactly as feed lines, the MOD and the exporters do.  ``repr()`` of a
:class:`~repro.tracking.types.CriticalPoint` is not canonical: two equal
frozensets built in another insertion order may iterate in another order
when their members' hashes collide under the process's hash seed
(``PYTHONHASHSEED=19`` reproduces it).
Alerts and movement events hold only scalars, so they compare as they are.
"""

import asyncio
import contextlib
import inspect
import time
from collections import Counter

from repro import obs
from repro.ais.scanner import DataScanner
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.gateway import GatewayNode, RuntimeLink
from repro.obs.registry import MetricsRegistry
from repro.pipeline import SurveillanceSystem
from repro.pipeline.config import SystemConfig
from repro.resilience import FaultPlan, InjectedFault, inject
from repro.service import ServiceConfig, ServiceSupervisor, offline_feed_lines
from repro.service.batcher import SlideBatcher
from repro.service.protocol import (
    format_ingest_line,
    parse_ingest_lines,
    parse_watermark,
    point_to_dict,
    slide_feed_line,
)
from repro.transport import create_transport

#: ``ServiceConfig`` ports of a test service: every listener ephemeral.
EPHEMERAL = {"ingest_port": 0, "feed_port": 0, "http_port": 0}


async def poll(predicate, timeout: float = 30.0) -> None:
    """Wait until ``predicate()`` holds, awaiting it when it returns an
    awaitable; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        held = predicate()
        if inspect.isawaitable(held):
            held = await held
        if held:
            return
        assert time.monotonic() < deadline, "poll timed out"
        await asyncio.sleep(0.005)


def canonical_points(points) -> list[dict]:
    """Critical points in their given order, annotation sets canonical."""
    return [point_to_dict(point) for point in points]


def canonical_report(report) -> dict:
    """Every deterministic field of a slide report (timings excluded)."""
    return {
        "query_time": report.query_time,
        "raw_positions": report.raw_positions,
        "movement_events": report.movement_events,
        "fresh_critical_points": report.fresh_critical_points,
        "expired_critical_points": report.expired_critical_points,
        "recognized": report.recognized_complex_events,
        "alerts": list(report.alerts),
        "fresh_points": canonical_points(report.fresh_points),
    }


def replay_transcript(system, stream, slide_seconds=1800, before_slide=None):
    """Drive ``system`` over ``stream`` to the end; its full transcript.

    ``before_slide(index)`` runs ahead of each slide (failure injection).
    The system is left open: the caller owns its lifecycle.
    """
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    slides = []
    for index, (query_time, batch) in enumerate(
        StreamReplayer(arrivals, slide_seconds).batches()
    ):
        if before_slide is not None:
            before_slide(index)
        slides.append(canonical_report(system.process_slide(batch, query_time)))
    final = canonical_report(system.finalize())
    database = system.database
    return {
        "slides": slides,
        "finalize": final,
        "synopsis": canonical_points(system.current_synopsis()),
        "alerts": system.alerts(),
        "archived": [
            canonical_points(database.trip_points(trip["trip_id"]))
            for trip in database.all_trips()
        ],
    }


_ORACLE_LINES: dict[tuple, tuple[str, ...]] = {}


def offline_oracle(sentences, world, specs, config=None) -> list[str]:
    """:func:`~repro.service.offline_feed_lines`, replayed once per input.

    The live-service, recovery and gateway suites all compare against the
    offline replay of the same few sentence streams; the replay is
    deterministic, so each (sentences, fleet, config) runs once per
    session and every caller gets its own copy of the lines.
    """
    key = (tuple(sentences), id(world), tuple(specs), config or SystemConfig())
    if key not in _ORACLE_LINES:
        _ORACLE_LINES[key] = tuple(
            offline_feed_lines(sentences, world, specs, config)
        )
    return list(_ORACLE_LINES[key])


def offline_replay(sentences, world, specs, config=None) -> SurveillanceSystem:
    """An offline replay of ``sentences``, slide by slide through
    ``track``, ``close_slide`` and ``archive``, then ``finalize``; left
    open.

    An archive that raises an injected fault is passed over, as the live
    batcher counts it and carries on: under a fault plan the replay
    leaves the MOD that plan leaves a live node.
    """
    config = config or SystemConfig()
    scanner = DataScanner()
    positions = scanner.scan_many(sentences)
    scanner.flush()
    system = SurveillanceSystem(world, specs, config)
    replayer = StreamReplayer(
        [TimedArrival(p.timestamp, p) for p in positions],
        config.window.slide_seconds,
    )
    for query_time, batch in replayer.batches():
        system.track(batch)
        system.close_slide(query_time)
        with contextlib.suppress(InjectedFault):
            system.archive()
    system.finalize()
    return system


def mod_contents(database) -> dict:
    """Every row of the MOD's staging, trips and trip_points tables."""
    connection = database.connection
    return {
        table: connection.execute(f"SELECT * FROM {table} ORDER BY {order}").fetchall()
        for table, order in (
            ("staging", "id"), ("trips", "trip_id"), ("trip_points", "trip_id, seq")
        )
    }


def archived_points(contents: dict) -> Counter:
    """``(mmsi, timestamp, lon, lat)`` of every point in :func:`mod_contents`,
    staged or in a trip."""
    vessel = {trip[0]: trip[1] for trip in contents["trips"]}
    return Counter(
        [(row[1], row[4], row[2], row[3]) for row in contents["staging"]]
        + [(vessel[row[0]], row[4], row[2], row[3]) for row in contents["trip_points"]]
    )


class KeepsItsMod(SurveillanceSystem):
    """The pipeline, keeping its MOD's :func:`mod_contents` in ``mod``
    when the service closes it."""

    mod: dict | None = None

    def close(self) -> None:
        if self.mod is None:
            self.mod = mod_contents(self.database)
        super().close()


async def send_sentences(port: int, sentences) -> None:
    """Write ``(receive_time, sentence)`` pairs to a TCP ingest port as
    ``<ts>\t<sentence>`` lines, then hang up."""
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    for receive_time, sentence in sentences:
        writer.write(f"{receive_time}\t{sentence}\n".encode("ascii"))
        if writer.transport.get_write_buffer_size() > 1 << 16:
            await writer.drain()
    await writer.drain()
    writer.close()
    await writer.wait_closed()


async def subscribe(port: int) -> asyncio.Task:
    """Connect to a TCP feed; a task collecting its lines until EOF."""
    # Slide lines can exceed the 64 KiB default StreamReader limit.
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=1 << 24
    )

    async def collect() -> list[str]:
        lines = []
        while raw := await reader.readline():
            lines.append(raw.decode("utf-8").rstrip("\n"))
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        return lines

    return asyncio.ensure_future(collect())


def tap_feed(supervisor) -> list[str]:
    """Capture every line ``supervisor`` publishes, recovery republish
    included."""
    lines = []
    original = supervisor.feed.publish

    def tap(line):
        lines.append(line)
        return original(line)

    supervisor.feed.publish = tap
    return lines


def tap_ingest(batcher) -> list[tuple[int, str]]:
    """Capture every ``(receive_time, sentence)`` record ``batcher``
    hands its scanner — post-shedding, journal replay included: the
    offline-parity replay input."""
    records = []
    original = batcher.scanner.scan_many

    def tap(batch):
        records.extend(batch)
        return original(batch)

    batcher.scanner.scan_many = tap
    return records


async def run_live(
    sentences, world, specs, config=None, service=None, system_factory=None,
    ingested=None,
):
    """Stream ``sentences`` into one node over real TCP, collect its feed
    over a socket, drain cleanly; ``(supervisor, feed lines)``.

    ``ingested``, a list, receives every record the batcher scanned
    (:func:`tap_ingest`)."""
    supervisor = ServiceSupervisor(
        world,
        specs,
        config,
        service or ServiceConfig(**EPHEMERAL),
        system_factory=system_factory,
    )
    tapped = tap_ingest(supervisor.batcher)
    await supervisor.start()
    ports = supervisor.ports()
    feed = await subscribe(ports["feed"])
    await poll(lambda: supervisor.feed.subscriber_count == 1)
    await send_sentences(ports["ingest"], sentences)
    # All lines are enqueued once the server side has seen the EOF.
    await poll(lambda: supervisor.ingest.open_connections == 0)
    await supervisor.drain_and_stop()
    if ingested is not None:
        ingested.extend(tapped)
    return supervisor, await feed


async def feed_gateways(cluster, streams) -> None:
    """Pump ``streams[g]`` into gateway ``g`` of ``cluster``, concurrently."""

    async def pump(gateway: int, stream) -> None:
        session = await cluster.connect_ingest(gateway)
        try:
            for receive_time, sentence in stream:
                await session.send(f"{receive_time}\t{sentence}")
        finally:
            await session.close()

    await asyncio.gather(
        *(pump(g, stream) for g, stream in enumerate(streams))
    )


async def quiesce(cluster) -> None:
    """Wait until every link is empty and every line the links sent has
    reached a live runtime and left its ingest queue, plus a breath for
    the last feed lines to reach the fan-in.

    Exact, unlike "all queues empty", which also holds while a line sits
    in a socket buffer between a link and its runtime: a crash there
    would lose a line the gateway counts as delivered."""

    def settled() -> bool:
        live = [
            supervisor
            for index, supervisor in enumerate(cluster.supervisors)
            if not cluster.is_crashed(index)
        ]
        sent = sum(
            node.registry.counter("gateway.link.lines").value
            for node in cluster.nodes
        )
        return (
            all(link.depth == 0 for node in cluster.nodes for link in node.links)
            and sum(supervisor.queue.put_count for supervisor in live) == sent
            and all(len(supervisor.queue) == 0 for supervisor in live)
        )

    await poll(settled)
    await asyncio.sleep(0.05)


async def run_cluster(cluster, streams, *, started=None, fed=None):
    """Start ``cluster``, pump ``streams[g]`` into gateway ``g``, drain.

    ``started(cluster)`` runs once the cluster listens, before any line
    (subscribe a consumer there); ``fed(cluster)`` runs once the streams
    are in and the cluster is quiet (probe, crash or feed more there).
    Returns both hooks' results."""
    await cluster.start()
    before = await started(cluster) if started is not None else None
    await feed_gateways(cluster, streams)
    after = None
    if fed is not None:
        await quiesce(cluster)
        after = await fed(cluster)
    await cluster.drain_and_stop()
    return before, after


def gateway_records(name: str, sentences, cuts):
    """What gateway node ``name`` queues for one runtime when a client
    sends it ``sentences`` in reads that end at each index in ``cuts``,
    then hangs up and the node drains: ``(records, registry)``, the
    ``(receive_time, line)`` records in link order (watermarks, the
    final one included) and the node's registry."""
    registry = MetricsRegistry()
    link = RuntimeLink(
        "l0", "127.0.0.1", 1, create_transport("tcp"), MetricsRegistry()
    )
    node = GatewayNode(
        name, "127.0.0.1", 0, create_transport("tcp"), [link], registry
    )
    lines = [format_ingest_line(t, s) for t, s in sentences]
    bounds = sorted({0, len(lines), *cuts})
    for start, end in zip(bounds, bounds[1:]):
        node._take(lines[start:end])
    asyncio.run(node.drain())
    return parse_ingest_lines([line for line, _, _ in link._items], 0), registry


def first_watermark_at(records, stamp: int) -> int:
    """Index of the first watermark among ``(receive_time, line)``
    records stamped at or past ``stamp``, or of the final one."""
    for index, (receive_time, line) in enumerate(records):
        watermark = parse_watermark(line)
        if watermark is not None and (receive_time >= stamp or watermark[1]):
            return index
    raise ValueError(f"no watermark at or past {stamp}")


def run_shard(records, world, specs, config, sources: int, hand_over: int = 7,
              faults: str = ""):
    """One runtime of ``sources`` gateway sources: a slide batcher over a
    real :class:`~repro.pipeline.SurveillanceSystem`, fed ``records``
    ``hand_over`` at a time under the fault plan ``faults``, then
    drained, with metrics on.  ``(feed lines, batcher, registry)``."""
    feed = []

    async def serve(batcher):
        await batcher.run()
        await batcher.drain()

    with obs.activate(MetricsRegistry()) as registry:
        with SurveillanceSystem(world, specs, config) as system:
            batcher = SlideBatcher(
                system, HandOver(records, hand_over),
                slide_seconds=config.window.slide_seconds,
                on_report=lambda r, kind: feed.append(slide_feed_line(r, kind)),
                watermark_sources=sources,
            )
            with inject(FaultPlan.from_spec(faults)):
                asyncio.run(serve(batcher))
    return feed, batcher, registry


class HandOver:
    """An ingest queue stand-in that hands the batcher ``size`` items
    per :meth:`get_many` — the cut a real queue makes by timing."""

    def __init__(self, records, size: int):
        self._items = [(receive_time, sentence, 0.0) for receive_time, sentence in records]
        self.size = size

    async def get_many(self):
        batch, self._items = self._items[: self.size], self._items[self.size :]
        return batch

    def __len__(self) -> int:
        return len(self._items)

"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's Section 5,
scaled from the 6,425-vessel / 3-month IMIS dataset down to a synthetic
fleet that runs on a laptop.  Absolute times therefore differ from the
paper; the *shapes* — linear growth with the slide step, compression around
94 %, CE recognition time growing with the window and halving with two
processors — are the reproduction targets (see EXPERIMENTS.md).

The module caches the expensive artifacts (fleet, stream, movement events)
per configuration so the parameter sweeps share them.
"""

import time
from functools import lru_cache
from pathlib import Path

from repro import obs
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.obs.report import build_pipeline_report, write_report
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.runtime import ParallelSurveillanceSystem
from repro.simulator import FleetSimulator, build_aegean_world
from repro.tracking import (
    Compressor,
    MobilityTracker,
    TrackingParameters,
    WindowSpec,
)

#: Benchmark fleet size (the paper's N = 6,425, scaled down ~40x).
FLEET_SIZE = 150
#: Simulated period covered by the benchmark stream.
DURATION_SECONDS = 24 * 3600

RESULTS_DIR = Path(__file__).parent / "results"


@lru_cache(maxsize=1)
def benchmark_world():
    """The shared 10-port / 35-area world."""
    return build_aegean_world()


@lru_cache(maxsize=4)
def benchmark_fleet(size: int = FLEET_SIZE, duration: int = DURATION_SECONDS):
    """A cached mixed fleet with its merged stream.

    Returns ``(vessels, specs, stream)``; everything is deterministic for
    the fixed seed, so repeated benchmark runs see identical input.
    """
    simulator = FleetSimulator(
        benchmark_world(), seed=2015, duration_seconds=duration
    )
    vessels = simulator.build_mixed_fleet(size)
    specs = {vessel.mmsi: vessel.spec for vessel in vessels}
    stream = simulator.positions(vessels)
    return vessels, specs, stream


def replay_tracking(
    stream,
    window: WindowSpec,
    parameters: TrackingParameters | None = None,
):
    """One full tracking replay under a window spec.

    Returns a dict with the per-slide average tracking cost (the Figure 6/7
    metric: updating the window with fresh locations, evicting expired ones,
    detecting trajectory events and reporting critical points) plus stream
    and compression statistics.
    """
    tracker = MobilityTracker(parameters or TrackingParameters())
    compressor = Compressor(window)
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    replayer = StreamReplayer(arrivals, window.slide_seconds)

    slide_costs = []
    total_events = 0
    total_critical = 0
    for query_time, batch in replayer.batches():
        started = time.perf_counter()
        events = tracker.process_batch(batch)
        fresh, expired = compressor.slide(
            events, query_time, raw_position_count=len(batch)
        )
        slide_costs.append(time.perf_counter() - started)
        total_events += len(events)
        total_critical += len(fresh)
        del expired

    return {
        "slides": len(slide_costs),
        "average_slide_seconds": (
            sum(slide_costs) / len(slide_costs) if slide_costs else 0.0
        ),
        "max_slide_seconds": max(slide_costs, default=0.0),
        "positions": len(stream),
        "movement_events": total_events,
        "critical_points": total_critical,
        "compression_ratio": compressor.statistics.compression_ratio,
    }


def collect_movement_events(stream, parameters=None):
    """Run the tracker over a whole stream; per-slide event batches.

    Returns ``[(query_time, events)]`` with an hourly slide — the ME feed
    the CE recognition benchmarks replay into RTEC.
    """
    tracker = MobilityTracker(parameters or TrackingParameters())
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    batches = []
    query_time = 0
    for query_time, batch in StreamReplayer(arrivals, 3600).batches():
        batches.append((query_time, tracker.process_batch(batch)))
    final = tracker.finalize()
    if batches and final:
        batches[-1] = (batches[-1][0], batches[-1][1] + final)
    return batches


def per_vessel_synopses(stream, parameters=None):
    """Full-history critical points per vessel (no window eviction).

    Used by the accuracy/compression sweeps of Figures 8 and 9.  Each
    vessel's first and last reported positions are added as anchor points:
    the paper's RMSE measures the deviation of *discarded intermediate*
    locations, interpolated "between the pair of adjacent critical points
    retained immediately before and after" — the trajectory endpoints are
    always known to the system (they sit in the live window), so clamping
    hours of trace to a lone mid-voyage critical point would measure an
    artifact, not compression loss.
    """
    from collections import defaultdict

    from repro.tracking.compressor import merge_events_into_critical_points
    from repro.tracking.types import CriticalPoint, MovementEventType

    tracker = MobilityTracker(parameters or TrackingParameters())
    events = tracker.process_batch(stream) + tracker.finalize()
    points = merge_events_into_critical_points(events)
    synopses = defaultdict(list)
    for point in points:
        synopses[point.mmsi].append(point)
    originals = defaultdict(list)
    for position in stream:
        originals[position.mmsi].append(position)

    def anchor(position):
        return CriticalPoint(
            mmsi=position.mmsi,
            lon=position.lon,
            lat=position.lat,
            timestamp=position.timestamp,
            annotations=frozenset({MovementEventType.SPEED_CHANGE}),
        )

    for mmsi, track in originals.items():
        synopsis = synopses.setdefault(mmsi, [])
        times = {p.timestamp for p in synopsis}
        if track[0].timestamp not in times:
            synopsis.insert(0, anchor(track[0]))
        if track[-1].timestamp not in times:
            synopsis.append(anchor(track[-1]))
    return dict(originals), dict(synopses)


def run_tracking_backend_sweep(
    backends: tuple[str, ...] | None = None,
    fleet_size: int = FLEET_SIZE,
    duration: int = DURATION_SECONDS,
    window: WindowSpec | None = None,
    rounds: int = 4,
) -> dict:
    """Tracking-kernel throughput per backend (see docs/PERFORMANCE.md).

    Replays the standard benchmark stream through every registered
    Mobility Tracker kernel in *interleaved* rounds (array, scalar,
    array, ...) and keeps each backend's best round, so CPU
    frequency drift hits all kernels alike instead of biasing whichever
    ran last.  Only the ``process_batch`` calls are timed — this is the
    kernel's own throughput, without compression or IPC.

    Before reporting, the sweep asserts the per-backend event streams
    are identical (the columnar kernels' byte-for-byte parity
    guarantee, docs/TRACKING.md): a speedup can never come from dropped
    or reordered work.  Returns the ``tracking_backends`` section that
    ``python benchmarks/harness.py --tracking-sweep`` embeds in
    ``BENCH_pipeline.json``.
    """
    from repro.tracking.backends import available_backends, create_tracker

    backends = backends or tuple(available_backends())
    window = window or WindowSpec.of_minutes(120, 30)
    _, _, stream = benchmark_fleet(fleet_size, duration)
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    batches = [
        batch
        for _, batch in StreamReplayer(arrivals, window.slide_seconds).batches()
    ]

    best: dict[str, float] = {name: float("inf") for name in backends}
    event_streams: dict[str, list] = {}
    for _ in range(rounds):
        for name in backends:
            tracker = create_tracker(backend=name)
            events = []
            elapsed = 0.0
            for batch in batches:
                started = time.perf_counter()
                produced = tracker.process_batch(batch)
                elapsed += time.perf_counter() - started
                events.extend(produced)
            events.extend(tracker.finalize())
            best[name] = min(best[name], elapsed)
            event_streams[name] = events

    reference = event_streams[backends[0]]
    identical = all(
        event_streams[name] == reference for name in backends[1:]
    )
    if not identical:  # pragma: no cover - parity is tested, not expected
        raise AssertionError(
            "tracking backends disagree on the benchmark stream; "
            "run tests/tracking/test_columnar_parity.py"
        )

    scalar_seconds = best.get("scalar", best[backends[0]])
    runs = [
        {
            "backend": name,
            "best_seconds": best[name],
            "positions_per_sec": (
                len(stream) / best[name] if best[name] > 0 else 0.0
            ),
            "speedup_vs_scalar": (
                scalar_seconds / best[name] if best[name] > 0 else 0.0
            ),
        }
        for name in backends
    ]
    return {
        "fleet_size": fleet_size,
        "duration_seconds": duration,
        "positions": len(stream),
        "slides": len(batches),
        "rounds": rounds,
        "movement_events": len(reference),
        "identical_events": identical,
        "runs": runs,
    }


#: Default landing spot of the machine-readable pipeline benchmark: the
#: repo root, so the perf trajectory (`BENCH_*.json`) accumulates per PR.
BENCH_PIPELINE_PATH = Path(__file__).parent.parent / "BENCH_pipeline.json"


def run_pipeline_benchmark(
    fleet_size: int = FLEET_SIZE,
    duration: int = DURATION_SECONDS,
    window: WindowSpec | None = None,
    json_path: Path | str | None = None,
    shards: int | None = None,
) -> dict:
    """Replay the *whole* pipeline under a fresh metrics registry.

    Unlike the per-figure benches (which isolate one component each), this
    drives :class:`SurveillanceSystem` end to end — tracking, staging,
    reconstruction, loading, recognition — and returns the standard
    observability report: per-phase p50/p95 latencies, events/sec
    throughput and the compression ratio.  When ``json_path`` is given the
    report is also written there; ``python benchmarks/harness.py`` writes
    it to :data:`BENCH_PIPELINE_PATH` so every PR can refresh the
    repo-root perf trajectory.

    ``shards`` selects the execution runtime: ``None`` (default) runs the
    in-process :class:`SurveillanceSystem`; any explicit count — including
    ``1`` — runs :class:`~repro.runtime.ParallelSurveillanceSystem` with
    that many worker processes, so a 1-shard run measures the runtime's
    IPC floor.  Outputs are identical either way; only the timings and the
    report's ``runtime`` section change.
    """
    window = window or WindowSpec.of_minutes(120, 30)
    _, specs, stream = benchmark_fleet(fleet_size, duration)
    with obs.activate(obs.MetricsRegistry()) as registry:
        config = SystemConfig(window=window)
        if shards is None:
            system = SurveillanceSystem(benchmark_world(), specs, config)
        else:  # explicit counts, 1 included, measure the sharded runtime
            system = ParallelSurveillanceSystem(
                benchmark_world(), specs, config, shards=shards
            )
        replayer = StreamReplayer(
            [TimedArrival(p.timestamp, p) for p in stream],
            window.slide_seconds,
        )
        for query_time, batch in replayer.batches():
            system.process_slide(batch, query_time)
        system.finalize()
        report = build_pipeline_report(
            system,
            registry,
            config={
                "benchmark": "pipeline",
                "fleet_size": fleet_size,
                "duration_seconds": duration,
                "window_range_seconds": window.range_seconds,
                "window_slide_seconds": window.slide_seconds,
                "seed": 2015,
                "shards": shards or 1,
            },
        )
        system.close()
    if json_path is not None:
        write_report(report, json_path)
    return report


def run_shard_sweep(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    fleet_size: int = FLEET_SIZE,
    duration: int = DURATION_SECONDS,
    window: WindowSpec | None = None,
) -> dict:
    """Pipeline throughput under the process-parallel runtime, per shard count.

    Every shard count — *including 1* — runs on the sharded runtime, so
    the speedup column isolates parallelism from IPC overhead: it divides
    each run's processing time into the 1-shard *runtime* baseline (the
    single-process system's figure is reported separately as
    ``single_process_seconds``).  Returns the ``shard_sweep`` section that
    ``python benchmarks/harness.py --shard-sweep`` embeds in
    ``BENCH_pipeline.json``.
    """
    single = run_pipeline_benchmark(fleet_size, duration, window, shards=None)
    runs = [
        (count, run_pipeline_benchmark(fleet_size, duration, window,
                                       shards=count))
        for count in shard_counts
    ]
    by_count = dict(runs)
    baseline = by_count.get(1, runs[0][1])
    baseline_seconds = baseline["throughput"]["processing_seconds"]
    entries = []
    for count, report in runs:
        seconds = report["throughput"]["processing_seconds"]
        entries.append({
            "shards": count,
            "processing_seconds": seconds,
            "positions_per_sec": report["throughput"]["positions_per_sec"],
            "speedup_vs_1shard": (
                baseline_seconds / seconds if seconds > 0 else 0.0
            ),
            "restarts": report.get("runtime", {}).get("restarts", 0),
        })
    return {
        "shard_counts": list(shard_counts),
        "single_process_seconds": single["throughput"]["processing_seconds"],
        "runs": entries,
    }


def run_service_benchmark(
    fleet_size: int = FLEET_SIZE,
    duration: int = DURATION_SECONDS,
    window: WindowSpec | None = None,
    wal_dir: str | None = None,
    wal_fsync: str = "batch",
) -> dict:
    """Measure the live service end to end over real TCP sockets.

    Encodes the benchmark stream as raw ``!AIVDM`` sentences, stands up a
    :class:`~repro.service.ServiceSupervisor` on ephemeral ports, replays
    the sentences through the ingest listener while a feed subscriber
    collects every slide line, then drains gracefully.  Returns the
    ``service`` section of ``BENCH_pipeline.json``: ingest p50/p99 latency
    (socket enqueue to batcher dequeue), sentences/sec and alerts/sec.

    ``wal_dir`` turns on the write-ahead ingest journal for the run —
    the knob ``run_chaos_benchmark`` uses to price durability.
    """
    import asyncio
    import json

    from repro.ais import encode_position_report, wrap_aivdm
    from repro.ais.messages import PositionReport
    from repro.service import ServiceConfig, ServiceSupervisor

    window = window or WindowSpec.of_minutes(120, 30)
    _, specs, stream = benchmark_fleet(fleet_size, duration)
    sentences = []
    for position in stream:
        payload, fill = encode_position_report(PositionReport(
            message_type=1,
            mmsi=position.mmsi,
            lon=position.lon,
            lat=position.lat,
            speed_knots=10.0,
            course_degrees=90.0,
            second_of_minute=position.timestamp % 60,
        ))
        sentences.append((position.timestamp, wrap_aivdm(payload, fill)))

    async def drive(supervisor):
        await supervisor.start()
        ports = supervisor.ports()
        # A slide line carries every fresh critical point, easily beyond
        # the 64 KiB default StreamReader limit at benchmark fleet sizes.
        feed_reader, feed_writer = await asyncio.open_connection(
            supervisor.service.host, ports["feed"], limit=1 << 24
        )
        while supervisor.feed.subscriber_count < 1:
            await asyncio.sleep(0.005)
        _, writer = await asyncio.open_connection(
            supervisor.service.host, ports["ingest"]
        )
        started = time.perf_counter()
        for receive_time, sentence in sentences:
            writer.write(f"{receive_time}\t{sentence}\n".encode("ascii"))
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        while supervisor.ingest.open_connections:
            await asyncio.sleep(0.005)
        await supervisor.drain_and_stop()
        elapsed = time.perf_counter() - started
        lines = []
        while True:
            raw = await feed_reader.readline()
            if not raw:
                break
            lines.append(json.loads(raw.decode("utf-8")))
        feed_writer.close()
        try:
            await feed_writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        return elapsed, lines

    with obs.activate(obs.MetricsRegistry()) as registry:
        supervisor = ServiceSupervisor(
            benchmark_world(),
            specs,
            SystemConfig(window=window),
            # The replay is unpaced (no receiver sends 24 h of traffic in
            # seconds), so size the queue for the whole stream: the section
            # measures service overhead on the full pipeline, not the
            # load-shedding policy (tests/service/test_soak_parity.py
            # covers shedding).
            ServiceConfig(
                ingest_port=0,
                feed_port=0,
                http_port=0,
                ingest_queue_size=len(sentences) + 1,
                wal_dir=wal_dir,
                wal_fsync=wal_fsync,
            ),
        )
        elapsed, feed_lines = asyncio.run(drive(supervisor))
        latency = registry.histogram("service.ingest.latency_seconds")
        alerts = supervisor.alert_ring.last_seq
        return {
            "fleet_size": fleet_size,
            "duration_seconds": duration,
            "sentences": len(sentences),
            "ingested": supervisor.queue.put_count,
            "shed": supervisor.queue.shed_count,
            "slides": supervisor.batcher.slides_processed,
            "feed_lines": len(feed_lines),
            "alerts": alerts,
            "elapsed_seconds": elapsed,
            "sentences_per_sec": (
                len(sentences) / elapsed if elapsed > 0 else 0.0
            ),
            "alerts_per_sec": alerts / elapsed if elapsed > 0 else 0.0,
            "ingest_latency_ms": {
                "p50": latency.quantile(0.5) * 1000.0,
                "p99": latency.quantile(0.99) * 1000.0,
                "mean": latency.mean * 1000.0,
                "max": (latency.max if latency.count else 0.0) * 1000.0,
            },
        }


def run_gateway_benchmark(
    fleet_size: int = FLEET_SIZE,
    duration: int = DURATION_SECONDS,
    window: WindowSpec | None = None,
    gateways: int = 2,
    runtimes: int = 4,
) -> dict:
    """Measure the scale-out tier end to end: a 2×4 gateway cluster.

    Encodes the benchmark stream as timestamped sentences, splits it
    round-robin across the gateway nodes (each substream stays
    time-ordered, the watermark monotonicity contract), replays both
    halves concurrently through real sockets, and drains.  Returns the
    ``gateway`` section of ``BENCH_pipeline.json``: aggregate alerts/sec
    through the merged feed plus per-node ingest p50/p99 (gateway link
    queue wait, the scale-out tier's own overhead; see docs/GATEWAY.md).
    """
    import asyncio
    import json

    from repro.ais import encode_position_report, wrap_aivdm
    from repro.ais.messages import PositionReport
    from repro.gateway import GatewayCluster, GatewayClusterConfig

    window = window or WindowSpec.of_minutes(120, 30)
    _, specs, stream = benchmark_fleet(fleet_size, duration)
    sentences = []
    for position in stream:
        payload, fill = encode_position_report(PositionReport(
            message_type=1,
            mmsi=position.mmsi,
            lon=position.lon,
            lat=position.lat,
            speed_knots=10.0,
            course_degrees=90.0,
            second_of_minute=position.timestamp % 60,
        ))
        sentences.append((position.timestamp, wrap_aivdm(payload, fill)))
    # Round-robin deal: each gateway's substream keeps the stream's time
    # order, satisfying the per-source watermark monotonicity contract.
    streams = [sentences[g::gateways] for g in range(gateways)]

    async def drive():
        cluster = GatewayCluster(
            benchmark_world(),
            specs,
            SystemConfig(window=window, ce_scope="vessel"),
            GatewayClusterConfig(
                gateways=gateways,
                runtimes=runtimes,
                # Unpaced replay: size every buffer for the whole stream
                # so the section measures tier overhead, not shedding
                # (tests/service/test_transports.py covers shedding).
                link_queue_size=len(sentences) + 1,
                ingest_queue_size=len(sentences) + 1,
            ),
        )
        await cluster.start()
        started = time.perf_counter()

        async def feed(gateway: int) -> None:
            session = await cluster.connect_ingest(gateway)
            for receive_time, sentence in streams[gateway]:
                await session.send(f"{receive_time}\t{sentence}")
            await session.close()

        await asyncio.gather(*(feed(g) for g in range(gateways)))
        await cluster.drain_and_stop()
        return cluster, time.perf_counter() - started

    with obs.activate(obs.MetricsRegistry()):
        cluster, elapsed = asyncio.run(drive())

    merged = [json.loads(line) for line in cluster.merged_lines]
    alerts = sum(len(payload["alerts"]) for payload in merged)
    nodes = []
    for node in cluster.nodes:
        latency = node.registry.histogram("gateway.ingest.latency_seconds")
        counters = node.registry.snapshot()["counters"]
        nodes.append({
            "name": node.name,
            "lines": int(counters.get("gateway.ingest.lines", 0)),
            "watermarks": int(counters.get("gateway.watermarks", 0)),
            "link_shed": int(counters.get("gateway.link.shed", 0)),
            "ingest_latency_ms": {
                "p50": latency.quantile(0.5) * 1000.0,
                "p99": latency.quantile(0.99) * 1000.0,
                "mean": latency.mean * 1000.0,
                "max": (latency.max if latency.count else 0.0) * 1000.0,
            },
        })
    return {
        "fleet_size": fleet_size,
        "duration_seconds": duration,
        "gateways": gateways,
        "runtimes": runtimes,
        "sentences": len(sentences),
        "merged_lines": len(merged),
        "alerts": alerts,
        "elapsed_seconds": elapsed,
        "sentences_per_sec": len(sentences) / elapsed if elapsed > 0 else 0.0,
        "alerts_per_sec": alerts / elapsed if elapsed > 0 else 0.0,
        "nodes": nodes,
    }


def run_partition_drill(
    fleet_size: int = 60,
    duration: int = 8 * 3600,
    window: WindowSpec | None = None,
    gateways: int = 2,
    runtimes: int = 2,
) -> dict:
    """Closed-loop self-healing under a seeded network partition.

    The ``self_healing`` section of ``BENCH_pipeline.json`` (see
    docs/RESILIENCE.md).  A gateway cluster runs on the ``chaos+tcp``
    transport; mid-stream the drill severs every gateway→runtime0 ingest
    path at the session layer (:func:`repro.transport.chaosnet.sever`)
    and lets the :class:`~repro.gateway.health.ClusterSupervisor` close
    the loop unaided: heartbeats keep the failure detectors fed, the
    ``down`` verdict triggers a supervised crash+restart, and the
    restarted runtime's fresh ephemeral port escapes the partition.  A
    :class:`~repro.service.feedclient.ResumableFeedReader` subscribed to
    the merged feed is forcibly evicted during the incident and must
    come back through the ``RESUME`` handshake.

    The drill *asserts* its own acceptance criteria — the faulted run's
    merged feed and the resumed subscriber's stream must both be
    byte-identical to an undisturbed oracle run, with zero ring-evicted
    gap lines — and records the measured detection and failover
    latency (MTTR evidence).
    """
    import asyncio
    import contextlib
    import tempfile

    from repro.ais import encode_position_report, wrap_aivdm
    from repro.ais.messages import PositionReport
    from repro.gateway import GatewayCluster, GatewayClusterConfig
    from repro.service import ResumableFeedReader
    from repro.transport import chaosnet

    window = window or WindowSpec.of_minutes(120, 30)
    _, specs, stream = benchmark_fleet(fleet_size, duration)
    sentences = []
    for position in stream:
        payload, fill = encode_position_report(PositionReport(
            message_type=1,
            mmsi=position.mmsi,
            lon=position.lon,
            lat=position.lat,
            speed_knots=10.0,
            course_degrees=90.0,
            second_of_minute=position.timestamp % 60,
        ))
        sentences.append((position.timestamp, wrap_aivdm(payload, fill)))
    streams = [sentences[g::gateways] for g in range(gateways)]
    midpoint = sentences[len(sentences) // 2][0]
    first = [[p for p in s if p[0] <= midpoint] for s in streams]
    second = [[p for p in s if p[0] > midpoint] for s in streams]

    async def poll(predicate, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() > deadline:
                raise TimeoutError("partition drill timed out while polling")
            await asyncio.sleep(0.005)

    async def quiesce(cluster) -> None:
        await poll(lambda: all(
            link.depth == 0 for node in cluster.nodes for link in node.links
        ))
        await poll(lambda: all(
            len(supervisor.queue) == 0
            for index, supervisor in enumerate(cluster.supervisors)
            if not cluster.is_crashed(index)
        ))
        await asyncio.sleep(0.05)

    async def pump(cluster, halves) -> None:
        async def one(gateway: int, half) -> None:
            session = await cluster.connect_ingest(gateway)
            try:
                for receive_time, sentence in half:
                    await session.send(f"{receive_time}\t{sentence}")
            finally:
                await session.close()

        await asyncio.gather(*(one(g, h) for g, h in enumerate(halves)))

    async def run(wal_root: str, fault: bool):
        cluster = GatewayCluster(
            benchmark_world(),
            specs,
            SystemConfig(window=window, ce_scope="vessel"),
            GatewayClusterConfig(
                gateways=gateways,
                runtimes=runtimes,
                backend_transport="chaos+tcp",
                link_queue_size=len(sentences) + 1,
                ingest_queue_size=len(sentences) + 1,
                wal_root=wal_root,
                link_down_seconds=0.25,
            ),
        )
        await cluster.start()
        supervisor = cluster.start_supervisor(run=False)
        host = cluster.cluster.host
        hub = cluster.aggregator.hub
        reader = ResumableFeedReader("tcp", host, hub.port)
        received: list[str] = []

        async def consume() -> None:
            async for line in reader.lines():
                received.append(line)

        consumer = asyncio.ensure_future(consume())
        try:
            await poll(lambda: hub.subscriber_count == 1)
            await pump(cluster, first)
            await quiesce(cluster)

            detection_ms = failover_ms = 0.0
            if fault:
                chaosnet.sever(host, cluster.supervisors[0].ingest.port)
                # The supervisor closes the loop by itself: heartbeats
                # feed the detectors, the down verdict triggers a
                # supervised restart, the fresh port escapes the sever.
                while not supervisor.incidents:
                    supervisor.tick()
                    await supervisor.check_once()
                    await asyncio.sleep(0.02)
                incident = supervisor.incidents[0]
                detection_ms = incident["detection_seconds"] * 1000.0
                failover_ms = incident["failover_seconds"] * 1000.0
                # Kick the subscriber mid-incident: it must come back
                # through the RESUME handshake, not stay connected.
                for subscriber in list(hub._subscribers):
                    hub._evict(subscriber)
                await poll(lambda: hub.subscriber_count == 1)

            await pump(cluster, second)
            await cluster.drain_and_stop()
            await poll(
                lambda: len(received) >= len(cluster.merged_lines),
                timeout=10.0,
            )
        finally:
            chaosnet.clear_partitions()
            reader.stop()
            consumer.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await consumer
        return cluster, received, reader, supervisor, detection_ms, failover_ms

    with tempfile.TemporaryDirectory(prefix="drill-oracle-") as oracle_root:
        with obs.activate(obs.MetricsRegistry()):
            oracle_cluster, oracle_received, _, _, _, _ = asyncio.run(
                run(oracle_root, fault=False)
            )
    oracle_lines = list(oracle_cluster.merged_lines)

    with tempfile.TemporaryDirectory(prefix="drill-fault-") as fault_root:
        with obs.activate(obs.MetricsRegistry()) as registry:
            (cluster, received, reader, supervisor,
             detection_ms, failover_ms) = asyncio.run(
                run(fault_root, fault=True)
            )
            gap_lines = int(
                registry.counter("service.feed.resume_gap_lines").value
            )

    byte_identical = cluster.merged_lines == oracle_lines
    subscriber_gapless = received == cluster.merged_lines
    result = {
        "fleet_size": fleet_size,
        "duration_seconds": duration,
        "gateways": gateways,
        "runtimes": runtimes,
        "sentences": len(sentences),
        "merged_lines": len(cluster.merged_lines),
        "detection_ms": detection_ms,
        "failover_ms": failover_ms,
        "mttr_ms": detection_ms + failover_ms,
        "restarts": supervisor.incidents[0]["restarts"],
        "incidents": len(supervisor.incidents),
        "feed_gap_lines": gap_lines,
        "subscriber_reconnects": reader.reconnects,
        "subscriber_lines": len(received),
        "oracle_subscriber_gapless": oracle_received == oracle_lines,
        "byte_identical": byte_identical,
        "subscriber_gapless": subscriber_gapless,
    }
    if not (byte_identical and subscriber_gapless and gap_lines == 0):
        raise AssertionError(
            f"partition drill failed its acceptance criteria: {result}"
        )
    return result


def run_chaos_benchmark(
    fleet_size: int = FLEET_SIZE,
    duration: int = DURATION_SECONDS,
    window: WindowSpec | None = None,
) -> dict:
    """Price the durability layer: WAL overhead and recovery time.

    Two measurements for the ``chaos`` section of ``BENCH_pipeline.json``
    (see docs/RESILIENCE.md):

    * **WAL steady-state overhead** — the service benchmark twice on the
      same stream, without and with the write-ahead ingest journal
      (``fsync=batch``, the intended operating point); the overhead is
      the relative slowdown of the journaled run.  Target: < 15 %.
    * **Recovery time** — a journal pre-populated with the whole stream
      is replayed through a fresh supervisor (exactly the restart path),
      timing the replay and the subsequent drain.
    """
    import asyncio
    import tempfile

    from repro.ais import encode_position_report, wrap_aivdm
    from repro.ais.messages import PositionReport
    from repro.resilience import IngestJournal
    from repro.service import ServiceConfig, ServiceSupervisor

    window = window or WindowSpec.of_minutes(120, 30)
    baseline = run_service_benchmark(fleet_size, duration, window)
    with tempfile.TemporaryDirectory(prefix="bench-wal-") as wal_dir:
        journaled = run_service_benchmark(
            fleet_size, duration, window, wal_dir=wal_dir
        )
    base_seconds = baseline["elapsed_seconds"]
    wal_seconds = journaled["elapsed_seconds"]
    overhead_pct = (
        (wal_seconds - base_seconds) / base_seconds * 100.0
        if base_seconds > 0 else 0.0
    )

    _, specs, stream = benchmark_fleet(fleet_size, duration)
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as recovery_dir:
        journal = IngestJournal(recovery_dir)
        for position in stream:
            payload, fill = encode_position_report(PositionReport(
                message_type=1,
                mmsi=position.mmsi,
                lon=position.lon,
                lat=position.lat,
                speed_knots=10.0,
                course_degrees=90.0,
                second_of_minute=position.timestamp % 60,
            ))
            journal.append(position.timestamp, wrap_aivdm(payload, fill))
        journal.sync()
        journal.close()

        async def recover():
            supervisor = ServiceSupervisor(
                benchmark_world(),
                specs,
                SystemConfig(window=window),
                ServiceConfig(
                    ingest_port=0, feed_port=0, http_port=0,
                    wal_dir=recovery_dir,
                ),
            )
            started = time.perf_counter()
            await supervisor.start()  # journal replay happens in here
            replay_seconds = time.perf_counter() - started
            await supervisor.drain_and_stop()
            drained_seconds = time.perf_counter() - started
            return supervisor.recovered_records, replay_seconds, drained_seconds

        with obs.activate(obs.MetricsRegistry()):
            records, replay_seconds, drained_seconds = asyncio.run(recover())

    return {
        "fleet_size": fleet_size,
        "duration_seconds": duration,
        "wal_overhead": {
            "fsync": "batch",
            "baseline_elapsed_seconds": base_seconds,
            "wal_elapsed_seconds": wal_seconds,
            "overhead_pct": overhead_pct,
            "target_pct": 15.0,
            "sentences": baseline["sentences"],
        },
        "recovery": {
            "journaled_records": records,
            "replay_seconds": replay_seconds,
            "replay_records_per_sec": (
                records / replay_seconds if replay_seconds > 0 else 0.0
            ),
            "drained_seconds": drained_seconds,
        },
    }


def run_pairwise_benchmark(
    fleet_size: int = FLEET_SIZE,
    duration: int = DURATION_SECONDS,
    window: WindowSpec | None = None,
) -> dict:
    """Price the pairwise layer: index build, candidate pairs, events/sec.

    Replays the rendezvous fixture embedded in a mixed fleet through the
    pipeline with ``pairwise=True`` (see docs/SPATIAL.md) and returns the
    ``pairwise`` section of ``BENCH_pipeline.json``: per-slide grid-index
    build p50/p95, candidate pairs screened per slide versus the
    brute-force O(n²) pair count (the O(n·k) evidence), pair facts and
    pairwise alerts per second of processing time.
    """
    from repro.maritime.pairwise.rules import PAIRWISE_CE_NAMES

    window = window or WindowSpec.of_minutes(120, 30)
    simulator = FleetSimulator(
        benchmark_world(), seed=2015, duration_seconds=duration
    )
    vessels = simulator.build_scenario_rendezvous()
    vessels += simulator.build_mixed_fleet(max(0, fleet_size - len(vessels)))
    specs = {vessel.mmsi: vessel.spec for vessel in vessels}
    stream = simulator.positions(vessels)

    with obs.activate(obs.MetricsRegistry()) as registry:
        system = SurveillanceSystem(
            benchmark_world(), specs,
            SystemConfig(window=window, pairwise=True),
        )
        replayer = StreamReplayer(
            [TimedArrival(p.timestamp, p) for p in stream],
            window.slide_seconds,
        )
        pairwise_alerts = 0
        slides = 0
        started = time.perf_counter()
        for query_time, batch in replayer.batches():
            report = system.process_slide(batch, query_time)
            slides += 1
            pairwise_alerts += sum(
                1 for alert in report.alerts if alert.kind in PAIRWISE_CE_NAMES
            )
        final = system.finalize()
        elapsed = time.perf_counter() - started
        pairwise_alerts += sum(
            1 for alert in final.alerts if alert.kind in PAIRWISE_CE_NAMES
        )
        snapshot = registry.snapshot()

    # The index-build span nests under the slide span during processing
    # and sits at top level during finalize; report the dominant path.
    builds = [
        stats
        for path, stats in sorted(snapshot["spans"].items())
        if path.endswith("pairwise.index_build")
    ]
    index_build = max(builds, key=lambda stats: stats["count"], default=None)
    candidate_pairs = snapshot["counters"].get("pairwise.candidate_pairs", 0.0)
    # What a per-slide all-pairs scan would have screened instead, once
    # every vessel is tracked — the O(n·k) vs O(n²) comparison.
    brute_force = slides * fleet_size * (fleet_size - 1) // 2
    return {
        "fleet_size": fleet_size,
        "duration_seconds": duration,
        "positions": len(stream),
        "slides": slides,
        "processing_seconds": elapsed,
        "index_build_ms": {
            "count": index_build["count"] if index_build else 0,
            "p50": (index_build["p50"] * 1000.0) if index_build else 0.0,
            "p95": (index_build["p95"] * 1000.0) if index_build else 0.0,
            "mean": (index_build["mean"] * 1000.0) if index_build else 0.0,
        },
        "candidate_pairs": int(candidate_pairs),
        "candidate_pairs_per_slide": (
            candidate_pairs / slides if slides else 0.0
        ),
        "brute_force_pairs": brute_force,
        "candidate_fraction_of_brute_force": (
            candidate_pairs / brute_force if brute_force else 0.0
        ),
        "close_pairs": int(
            snapshot["counters"].get("pairwise.close_pairs", 0.0)
        ),
        "pair_facts": int(snapshot["counters"].get("pairwise.facts", 0.0)),
        "pair_facts_per_sec": (
            snapshot["counters"].get("pairwise.facts", 0.0) / elapsed
            if elapsed > 0 else 0.0
        ),
        "pairwise_alerts": pairwise_alerts,
        "pairwise_events_per_sec": (
            pairwise_alerts / elapsed if elapsed > 0 else 0.0
        ),
    }


def run_lint_benchmark(paths: tuple[str, ...] = ("src", "tests")) -> dict:
    """Time the project's own static analyzer over the tree.

    The ``static_analysis`` section of ``BENCH_pipeline.json``: the
    analyzer runs inside an activated obs registry (so it measures itself
    through the same instruments as the pipeline, see
    docs/STATIC_ANALYSIS.md) and reports files scanned, findings,
    suppressions, throughput, and per-rule seconds.
    """
    from repro.analysis import run_analysis

    repo_root = Path(__file__).resolve().parent.parent
    with obs.activate(obs.MetricsRegistry()) as registry:
        result = run_analysis([repo_root / path for path in paths])
        recorded_files = registry.counter("analysis.files").value
        recorded_runs = registry.histogram("analysis.run_seconds").count
    return {
        "paths": list(paths),
        "clean": not result.diagnostics,
        "findings": [d.to_dict() for d in result.diagnostics],
        **result.stats(),
        # Cross-check: the obs registry saw the same run the result did.
        "obs_files": int(recorded_files),
        "obs_runs_recorded": recorded_runs,
    }


def record_result(name: str, lines: list[str]) -> Path:
    """Write a result table under benchmarks/results/ and echo it.

    The files are the machine-readable counterpart of EXPERIMENTS.md.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    content = "\n".join(lines) + "\n"
    path.write_text(content)
    print(f"\n=== {name} ===")
    print(content)
    return path


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="End-to-end pipeline benchmark (writes BENCH_pipeline.json)"
    )
    parser.add_argument("--fleet-size", type=int, default=FLEET_SIZE,
                        help=f"vessels in the benchmark fleet "
                             f"(default: {FLEET_SIZE})")
    parser.add_argument("--duration-hours", type=float,
                        default=DURATION_SECONDS / 3600,
                        help="simulated hours of traffic (default: 24)")
    parser.add_argument("--tracking-sweep", action="store_true",
                        help="also time every Mobility Tracker kernel over "
                             "the benchmark stream (interleaved best-of-4, "
                             "parity-checked) and record per-backend "
                             "positions/sec and speedup vs scalar")
    parser.add_argument("--shard-sweep", action="store_true",
                        help="also run the process-parallel runtime at 1/2/4 "
                             "shards and record speedups vs the 1-shard "
                             "runtime baseline")
    parser.add_argument("--service", action="store_true",
                        help="also replay the stream through the live TCP "
                             "service and record ingest p50/p99 latency and "
                             "alerts/sec")
    parser.add_argument("--chaos", action="store_true",
                        help="also measure the durability layer: WAL "
                             "steady-state overhead (service bench with vs "
                             "without the ingest journal, fsync=batch) and "
                             "journal recovery time")
    parser.add_argument("--partition-drill", action="store_true",
                        help="also run the self-healing drill: sever one "
                             "gateway->runtime path mid-stream on the "
                             "chaos+tcp transport, let the cluster "
                             "supervisor detect and fail over, and assert "
                             "the resumed merged feed is byte-identical "
                             "to an undisturbed oracle run")
    parser.add_argument("--pairwise", action="store_true",
                        help="also replay the rendezvous fixture in a mixed "
                             "fleet with pairwise CE recognition on and "
                             "record grid-index build time, candidate pairs "
                             "per slide and pairwise events/sec")
    parser.add_argument("--gateway", action="store_true",
                        help="also replay the stream through a 2-gateway x "
                             "4-runtime cluster and record aggregate "
                             "alerts/sec plus per-node ingest p50/p99")
    parser.add_argument("--lint", action="store_true",
                        help="also time `python -m repro.analysis` over "
                             "src and tests and record analyzer "
                             "throughput and per-rule seconds")
    parser.add_argument("--json-path", default=BENCH_PIPELINE_PATH,
                        help="where to write the report "
                             "(default: repo-root BENCH_pipeline.json)")
    cli = parser.parse_args()
    duration_seconds = int(cli.duration_hours * 3600)

    bench_report = run_pipeline_benchmark(
        fleet_size=cli.fleet_size, duration=duration_seconds
    )
    if cli.tracking_sweep:
        bench_report["tracking_backends"] = run_tracking_backend_sweep(
            fleet_size=cli.fleet_size, duration=duration_seconds
        )
    if cli.shard_sweep:
        bench_report["shard_sweep"] = run_shard_sweep(
            fleet_size=cli.fleet_size, duration=duration_seconds
        )
    if cli.service:
        bench_report["service"] = run_service_benchmark(
            fleet_size=cli.fleet_size, duration=duration_seconds
        )
    if cli.chaos:
        bench_report["chaos"] = run_chaos_benchmark(
            fleet_size=cli.fleet_size, duration=duration_seconds
        )
    if cli.partition_drill:
        bench_report["self_healing"] = run_partition_drill(
            fleet_size=cli.fleet_size, duration=duration_seconds
        )
    if cli.pairwise:
        bench_report["pairwise"] = run_pairwise_benchmark(
            fleet_size=cli.fleet_size, duration=duration_seconds
        )
    if cli.gateway:
        bench_report["gateway"] = run_gateway_benchmark(
            fleet_size=cli.fleet_size, duration=duration_seconds
        )
    if cli.lint:
        bench_report["static_analysis"] = run_lint_benchmark()
    write_report(bench_report, cli.json_path)
    throughput = bench_report["throughput"]
    print(f"BENCH_pipeline written to {cli.json_path}")
    print(
        f"  slides={bench_report['slides']}  "
        f"positions/s={throughput['positions_per_sec']:.0f}  "
        f"events/s={throughput['events_per_sec']:.0f}  "
        f"compression={bench_report['compression_ratio']:.1%}"
    )
    for phase_name, stats in bench_report["phases"].items():
        print(
            f"  {phase_name:>14}: p50={stats['p50_ms']:.2f}ms "
            f"p95={stats['p95_ms']:.2f}ms mean={stats['mean_ms']:.2f}ms"
        )
    if cli.tracking_sweep:
        for entry in bench_report["tracking_backends"]["runs"]:
            print(
                f"  backend={entry['backend']:>6}: "
                f"{entry['best_seconds']:.3f}s  "
                f"{entry['positions_per_sec']:.0f} pos/s  "
                f"speedup={entry['speedup_vs_scalar']:.2f}x"
            )
    if cli.shard_sweep:
        for entry in bench_report["shard_sweep"]["runs"]:
            print(
                f"  shards={entry['shards']}: "
                f"{entry['processing_seconds']:.2f}s  "
                f"{entry['positions_per_sec']:.0f} pos/s  "
                f"speedup={entry['speedup_vs_1shard']:.2f}x"
            )
    if cli.service:
        svc = bench_report["service"]
        latency = svc["ingest_latency_ms"]
        print(
            f"  service: {svc['sentences_per_sec']:.0f} sentences/s  "
            f"ingest p50={latency['p50']:.2f}ms p99={latency['p99']:.2f}ms  "
            f"alerts/s={svc['alerts_per_sec']:.2f}  shed={svc['shed']}"
        )
    if cli.chaos:
        chaos = bench_report["chaos"]
        overhead = chaos["wal_overhead"]
        recovery = chaos["recovery"]
        print(
            f"  chaos: WAL overhead={overhead['overhead_pct']:.1f}% "
            f"(target <{overhead['target_pct']:.0f}%)  "
            f"recovery={recovery['replay_seconds']:.2f}s for "
            f"{recovery['journaled_records']} records "
            f"({recovery['replay_records_per_sec']:.0f} rec/s)"
        )
    if cli.partition_drill:
        drill = bench_report["self_healing"]
        print(
            f"  self-healing: detection={drill['detection_ms']:.0f}ms "
            f"failover={drill['failover_ms']:.0f}ms "
            f"mttr={drill['mttr_ms']:.0f}ms  "
            f"gap_lines={drill['feed_gap_lines']}  "
            f"reconnects={drill['subscriber_reconnects']}  "
            f"byte_identical={drill['byte_identical']}"
        )
    if cli.pairwise:
        pairwise = bench_report["pairwise"]
        build = pairwise["index_build_ms"]
        print(
            f"  pairwise: index build p50={build['p50']:.3f}ms "
            f"p95={build['p95']:.3f}ms  "
            f"candidates/slide={pairwise['candidate_pairs_per_slide']:.0f} "
            f"({pairwise['candidate_fraction_of_brute_force']:.1%} of "
            f"brute force)  "
            f"events/s={pairwise['pairwise_events_per_sec']:.2f}"
        )
    if cli.gateway:
        gw = bench_report["gateway"]
        print(
            f"  gateway: {gw['gateways']}x{gw['runtimes']} cluster  "
            f"{gw['sentences_per_sec']:.0f} sentences/s  "
            f"alerts/s={gw['alerts_per_sec']:.2f}"
        )
        for entry in gw["nodes"]:
            latency = entry["ingest_latency_ms"]
            print(
                f"  {entry['name']:>9}: lines={entry['lines']}  "
                f"link p50={latency['p50']:.2f}ms "
                f"p99={latency['p99']:.2f}ms  shed={entry['link_shed']}"
            )
    if cli.lint:
        lint = bench_report["static_analysis"]
        print(
            f"  static analysis: {lint['files']} files in "
            f"{lint['elapsed_seconds']:.2f}s "
            f"({lint['files_per_sec']:.0f} files/s)  "
            f"findings={lint['diagnostics']}  "
            f"suppressed={lint['suppressed']}  clean={lint['clean']}"
        )

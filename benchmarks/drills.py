"""The sweeps and fault drills no gated benchmark workload covers.

"How fast is it?" has one answer, ``benchmarks/e2e`` (docs/PERFORMANCE.md).
These four drills ask something else — which tracking kernel earns its
place, what the write-ahead journal costs and how fast it recovers, whether a partitioned cluster heals to a
byte-identical feed, how long the project's own lint takes::

    PYTHONPATH=src python benchmarks/drills.py tracking-sweep
    PYTHONPATH=src python benchmarks/drills.py chaos
    PYTHONPATH=src python benchmarks/drills.py partition-drill
    PYTHONPATH=src python benchmarks/drills.py lint

Each prints its one section as JSON, stamped with commit / python / cpu
count / date.  ``--json PATH`` also replaces that section's key in PATH
and leaves every other key alone; ``benchmarks/results/drills.json`` is
the committed copy.  Timings are raw wall-clock on whatever host ran
them: compare them within one section, never across commits.
"""

import argparse
import asyncio
import contextlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from harness import (
    DURATION_SECONDS,
    FLEET_SIZE,
    benchmark_fleet,
    benchmark_world,
    encode_sentences,
)

from repro import obs
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.analysis import run_analysis
from repro.gateway import GatewayCluster, GatewayClusterConfig
from repro.obs.report import write_report
from repro.pipeline import SystemConfig
from repro.resilience import IngestJournal
from repro.service import ResumableFeedReader, ServiceConfig, ServiceSupervisor
from repro.tracking import ColumnarTracker, WindowSpec
from repro.transport import chaosnet

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Every drill runs the pipeline under the paper's default window.
WINDOW = WindowSpec.of_minutes(120, 30)


def _slide_batches(stream):
    """``(query_time, batch)`` per slide of :data:`WINDOW` over the stream."""
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    return list(StreamReplayer(arrivals, WINDOW.slide_seconds).batches())


def run_tracking_sweep(fleet_size: int, duration: int, rounds: int = 4) -> dict:
    """Tracking-kernel throughput, columnar kernel vs scalar reference.

    Replays the benchmark stream through every Mobility Tracker kernel in
    *interleaved* rounds (array, scalar, array, ...) and keeps each
    backend's best round, so CPU frequency drift hits all kernels alike
    instead of biasing whichever ran last.  Only the ``process_batch``
    calls are timed — the kernel's own throughput, without compression
    or IPC.

    Before reporting, the sweep asserts the per-backend event streams are
    identical (the columnar kernel's byte-for-byte parity guarantee,
    docs/TRACKING.md): a speedup can never come from dropped or reordered
    work.
    """
    # The scalar reference is a test-suite oracle (tests/tracking/oracle.py).
    sys.path.insert(1, str(REPO_ROOT))
    from tests.tracking.oracle import MobilityTracker

    kernels = {"array": ColumnarTracker, "scalar": MobilityTracker}
    backends = tuple(kernels)
    _, _, stream = benchmark_fleet(fleet_size, duration)
    batches = [batch for _, batch in _slide_batches(stream)]

    best = {name: float("inf") for name in backends}
    event_streams: dict[str, list] = {}
    for _ in range(rounds):
        for name in backends:
            tracker = kernels[name]()
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
    if any(event_streams[name] != reference for name in backends[1:]):
        raise AssertionError(
            "tracking backends disagree on the benchmark stream; "
            "run tests/tracking/test_columnar_parity.py"
        )

    scalar_seconds = best["scalar"]
    return {
        "fleet_size": fleet_size,
        "duration_seconds": duration,
        "positions": len(stream),
        "slides": len(batches),
        "rounds": rounds,
        "movement_events": len(reference),
        "identical_events": True,
        "runs": [
            {
                "backend": name,
                "best_seconds": best[name],
                "positions_per_sec": len(stream) / best[name],
                "speedup_vs_scalar": scalar_seconds / best[name],
            }
            for name in backends
        ],
    }


def _run_service(sentences, specs, wal_dir: str | None = None) -> float:
    """Seconds to push ``sentences`` through one live node over real TCP.

    Stands up a :class:`~repro.service.ServiceSupervisor` on ephemeral
    ports, replays the sentences through the ingest listener while a feed
    subscriber collects every slide line, then drains gracefully.
    ``wal_dir`` turns on the write-ahead ingest journal (``fsync=batch``).
    """

    async def drive(supervisor) -> float:
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
        while await feed_reader.readline():
            pass
        feed_writer.close()
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await feed_writer.wait_closed()
        return elapsed

    with obs.activate(obs.MetricsRegistry()):
        supervisor = ServiceSupervisor(
            benchmark_world(),
            specs,
            SystemConfig(window=WINDOW),
            # The replay is unpaced (no receiver sends 24 h of traffic in
            # seconds), so size the queue for the whole stream: the drill
            # prices the journal, not the load-shedding policy
            # (tests/service/test_soak_parity.py covers shedding).
            ServiceConfig(
                ingest_port=0,
                feed_port=0,
                http_port=0,
                ingest_queue_size=len(sentences) + 1,
                wal_dir=wal_dir,
            ),
        )
        return asyncio.run(drive(supervisor))


def run_chaos_drill(fleet_size: int, duration: int) -> dict:
    """Price the durability layer: WAL overhead and recovery time.

    Two measurements (see docs/RESILIENCE.md):

    * **WAL steady-state overhead** — the live node twice on the same
      stream, without and with the write-ahead ingest journal
      (``fsync=batch``, the intended operating point); the overhead is
      the relative slowdown of the journaled run.  Target: < 15 %.
    * **Recovery time** — a journal pre-populated with the whole stream
      is replayed through a fresh supervisor (exactly the restart path),
      timing the replay and the subsequent drain.
    """
    _, specs, stream = benchmark_fleet(fleet_size, duration)
    sentences = encode_sentences(stream)
    base_seconds = _run_service(sentences, specs)
    with tempfile.TemporaryDirectory(prefix="bench-wal-") as wal_dir:
        wal_seconds = _run_service(sentences, specs, wal_dir=wal_dir)

    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as recovery_dir:
        journal = IngestJournal(recovery_dir)
        for receive_time, sentence in sentences:
            journal.append(receive_time, sentence)
        journal.sync()
        journal.close()

        async def recover():
            supervisor = ServiceSupervisor(
                benchmark_world(),
                specs,
                SystemConfig(window=WINDOW),
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
            "overhead_pct": (wal_seconds - base_seconds) / base_seconds * 100.0,
            "target_pct": 15.0,
            "sentences": len(sentences),
        },
        "recovery": {
            "journaled_records": records,
            "replay_seconds": replay_seconds,
            "replay_records_per_sec": records / replay_seconds,
            "drained_seconds": drained_seconds,
        },
    }


def run_partition_drill(
    fleet_size: int, duration: int, gateways: int = 2, runtimes: int = 2
) -> dict:
    """Closed-loop self-healing under a seeded network partition.

    A gateway cluster runs on the ``chaos+tcp`` transport; mid-stream the
    drill severs every gateway→runtime0 ingest path at the session layer
    (:func:`repro.transport.chaosnet.sever`) and lets the
    :class:`~repro.gateway.health.ClusterSupervisor` close the loop
    unaided: heartbeats keep the failure detectors fed, the ``down``
    verdict triggers a supervised crash+restart, and the restarted
    runtime's fresh ephemeral port escapes the partition.  A
    :class:`~repro.service.feedclient.ResumableFeedReader` subscribed to
    the merged feed is forcibly evicted during the incident and must
    come back through the ``RESUME`` handshake.

    The drill *asserts* its own acceptance criteria — the faulted run's
    merged feed and the resumed subscriber's stream must both be
    byte-identical to an undisturbed oracle run, with zero ring-evicted
    gap lines — and records the measured detection and failover latency
    (MTTR evidence, docs/RESILIENCE.md).
    """
    _, specs, stream = benchmark_fleet(fleet_size, duration)
    sentences = encode_sentences(stream)
    # Round-robin deal: each gateway's substream keeps the stream's time
    # order, satisfying the per-source watermark monotonicity contract.
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
            SystemConfig(window=WINDOW, ce_scope="vessel"),
            GatewayClusterConfig(
                gateways=gateways,
                runtimes=runtimes,
                backend_transport="chaos+tcp",
                queue_size=len(sentences) + 1,
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

            if fault:
                chaosnet.sever(host, cluster.supervisors[0].ingest.port)
                # The supervisor closes the loop by itself: heartbeats
                # feed the detectors, the down verdict triggers a
                # supervised restart, the fresh port escapes the sever.
                while not supervisor.incidents:
                    supervisor.tick()
                    await supervisor.check_once()
                    await asyncio.sleep(0.02)
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
        return cluster, received, reader, supervisor

    with (
        tempfile.TemporaryDirectory(prefix="drill-oracle-") as oracle_root,
        obs.activate(obs.MetricsRegistry()),
    ):
        oracle_cluster, oracle_received, _, _ = asyncio.run(
            run(oracle_root, fault=False)
        )
    oracle_lines = list(oracle_cluster.merged_lines)

    with (
        tempfile.TemporaryDirectory(prefix="drill-fault-") as fault_root,
        obs.activate(obs.MetricsRegistry()) as registry,
    ):
        cluster, received, reader, supervisor = asyncio.run(
            run(fault_root, fault=True)
        )
        gap_lines = int(registry.counter("service.feed.resume_gap_lines").value)

    incident = supervisor.incidents[0]
    detection_ms = incident["detection_seconds"] * 1000.0
    failover_ms = incident["failover_seconds"] * 1000.0
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
        "restarts": incident["restarts"],
        "incidents": len(supervisor.incidents),
        "feed_gap_lines": gap_lines,
        "subscriber_reconnects": reader.reconnects,
        "subscriber_lines": len(received),
        "oracle_subscriber_gapless": oracle_received == oracle_lines,
        "byte_identical": cluster.merged_lines == oracle_lines,
        "subscriber_gapless": received == cluster.merged_lines,
    }
    if not (
        result["byte_identical"]
        and result["subscriber_gapless"]
        and gap_lines == 0
    ):
        raise AssertionError(
            f"partition drill failed its acceptance criteria: {result}"
        )
    return result


def run_lint_drill(paths: tuple[str, ...] = ("src", "tests")) -> dict:
    """Time the project's own static analyzer over the tree.

    The analyzer runs inside an activated obs registry (so it measures
    itself through the same instruments as the pipeline, see
    docs/STATIC_ANALYSIS.md) and reports files scanned, findings,
    suppressions, throughput, and per-rule seconds.
    """
    with obs.activate(obs.MetricsRegistry()) as registry:
        result = run_analysis([REPO_ROOT / path for path in paths])
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


#: Subcommand -> drill; the section's JSON key is the name with underscores.
DRILLS = {
    "tracking-sweep": run_tracking_sweep,
    "chaos": run_chaos_drill,
    "partition-drill": run_partition_drill,
    "lint": lambda fleet_size, duration: run_lint_drill(),
}


def stamp() -> dict:
    """What produced a section: commit (``-dirty`` when the tree has
    uncommitted changes), interpreter, cores, UTC date."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=False,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "date": datetime.now(timezone.utc).date().isoformat(),
    }


def merge_section(path: Path, key: str, section: dict) -> None:
    """Replace ``key`` in the JSON object at ``path``; keep its other keys."""
    sections = json.loads(path.read_text()) if path.exists() else {}
    sections[key] = section
    write_report(sections, path)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("drill", choices=sorted(DRILLS))
    parser.add_argument("--fleet-size", type=int, default=FLEET_SIZE,
                        help=f"vessels in the fleet (default: {FLEET_SIZE})")
    parser.add_argument("--duration-hours", type=float,
                        default=DURATION_SECONDS / 3600,
                        help="simulated hours of traffic (default: 24)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also replace this drill's key in PATH")
    cli = parser.parse_args(argv)
    section = stamp() | DRILLS[cli.drill](
        fleet_size=cli.fleet_size, duration=int(cli.duration_hours * 3600)
    )
    print(json.dumps(section, indent=2))
    if cli.json is not None:
        merge_section(cli.json, cli.drill.replace("-", "_"), section)


if __name__ == "__main__":
    main()

"""Command-line demo of the surveillance system.

Usage::

    python -m repro [--vessels N] [--hours H] [--seed S]
                    [--window-hours W] [--slide-minutes B]
                    [--pairwise]
                    [--kml PATH] [--metrics-json PATH]
    python -m repro --serve [--port P] [--host H]
                    [--wal-dir PATH] [--fsync always|batch|never]
                    [--chaos SPEC | --chaos-seed N] [... same pipeline flags]

Simulates a mixed fleet, runs the full pipeline, streams alerts to stdout
as they are recognized, and prints the end-of-run summary (compression,
phase timings, Table-4 trip statistics).  With ``--metrics-json`` the
metrics registry is enabled for the run and a machine-readable report
(per-phase p50/p95 latencies, events/sec throughput, compression ratio,
full registry snapshot) is written to the given path — see
docs/OBSERVABILITY.md for the format.

``--serve`` starts the always-on live service instead of a batch replay:
a TCP ingest listener for raw ``!AIVDM`` lines on ``--port`` (default
10110, the conventional NMEA-over-TCP port), the newline-delimited-JSON
subscription feed on ``port+1``, and the HTTP query/metrics API
(``/healthz``, Prometheus ``/metrics``, ``/vessels/{mmsi}``,
``/alerts?since=``) on ``port+2``.  The served recognizer uses the fleet
specs derived from ``--vessels``/``--seed``, so pair it with
``examples/live_feed.py`` run with the same values.  SIGINT/SIGTERM
drains gracefully: buffered sentences flush through the pipeline, the
final slide and end-of-stream finalize run, then the process exits 0.
See docs/SERVICE.md for the wire protocols and backpressure semantics.

``--wal-dir`` makes the served ingest durable: every post-shedding
sentence is journaled to a write-ahead log before processing
(``--fsync`` picks the durability/throughput trade-off), and restarting
with the same directory replays unacknowledged sentences to
byte-identical output.  ``--chaos`` installs a deterministic fault plan
(``site:kind@hit[,...]``) or ``--chaos-seed`` generates one — see
docs/RESILIENCE.md for sites, kinds, and the recovery guarantees.
"""

import argparse
import sys
from pathlib import Path

from repro import obs
from repro import (
    FleetSimulator,
    StreamReplayer,
    SurveillanceSystem,
    SystemConfig,
    TimedArrival,
    WindowSpec,
    build_aegean_world,
    compute_trip_statistics,
)
from repro.transport import DEFAULT_TRANSPORT, available_transports


def _report_path(value: str) -> str:
    """``--metrics-json`` must be writable once the run is over."""
    if not value:
        raise argparse.ArgumentTypeError("path must not be empty")
    if not Path(value).absolute().parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory of {value!r} does not exist"
        )
    return value


def _fault_plan(value: str):
    """``--chaos`` names only sites of ``SITES``, each with a kind that
    site interprets: a plan that would arm nothing, or fire a fault its
    site ignores, is a usage error."""
    from repro.resilience import SITES, FaultPlan

    try:
        plan = FaultPlan.from_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    for spec in plan.specs:
        kinds = SITES.get(spec.site)
        if kinds is None:
            raise argparse.ArgumentTypeError(
                f"unknown fault site {spec.site!r}; known: {', '.join(SITES)}"
            )
        if spec.kind not in kinds:
            raise argparse.ArgumentTypeError(
                f"fault site {spec.site!r} interprets {', '.join(kinds)}, "
                f"not {spec.kind!r}"
            )
    return plan


def build_parser() -> argparse.ArgumentParser:
    """The demo's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Maritime surveillance pipeline demo (EDBT 2015 system)",
    )
    parser.add_argument("--vessels", type=int, default=50,
                        help="fleet size (default: 50)")
    parser.add_argument("--hours", type=float, default=6.0,
                        help="simulated hours of traffic (default: 6)")
    parser.add_argument("--seed", type=int, default=7,
                        help="simulation seed (default: 7)")
    parser.add_argument("--window-hours", type=float, default=2.0,
                        help="sliding-window range omega (default: 2)")
    parser.add_argument("--slide-minutes", type=float, default=30.0,
                        help="window slide beta (default: 30)")
    parser.add_argument("--pairwise", action="store_true",
                        help="recognize pairwise CEs (encounter, rendezvous, "
                             "cpaRisk, darkShip); see docs/SPATIAL.md")
    parser.add_argument("--serve", action="store_true",
                        help="run the live service (TCP ingest + feed + "
                             "HTTP API) instead of a batch replay; see "
                             "docs/SERVICE.md")
    parser.add_argument("--port", type=int, default=10110,
                        help="base port with --serve: ingest=PORT, "
                             "feed=PORT+1, http=PORT+2 (default: 10110; "
                             "0 binds ephemerally)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address with --serve (default: 127.0.0.1)")
    parser.add_argument("--ingest-transport", default=DEFAULT_TRANSPORT,
                        choices=available_transports(),
                        help="wire protocol of the --serve ingest listener "
                             "(docs/GATEWAY.md) "
                             f"(default: {DEFAULT_TRANSPORT})")
    parser.add_argument("--feed-transport", default=DEFAULT_TRANSPORT,
                        choices=available_transports(),
                        help="wire protocol of the --serve subscription "
                             f"feed (default: {DEFAULT_TRANSPORT})")
    parser.add_argument("--wal-dir", metavar="PATH",
                        help="with --serve: write-ahead ingest journal "
                             "directory; restart with the same path to "
                             "replay unacknowledged sentences "
                             "(docs/RESILIENCE.md)")
    parser.add_argument("--fsync", choices=("always", "batch", "never"),
                        default="batch",
                        help="WAL fsync policy with --wal-dir: per record, "
                             "per slide boundary, or never (default: batch)")
    parser.add_argument("--chaos", metavar="SPEC", type=_fault_plan,
                        help="with --serve: install a deterministic fault "
                             "plan, e.g. "
                             "'mod.write:error@3,service.slide:crash@2'")
    parser.add_argument("--chaos-seed", type=int, metavar="N",
                        help="with --serve: generate a seeded fault plan "
                             "over all known sites (replayable by seed; "
                             "prints the plan)")
    parser.add_argument("--kml", metavar="PATH",
                        help="export the final window synopsis as KML")
    parser.add_argument("--metrics-json", metavar="PATH", type=_report_path,
                        help="enable metrics collection and write the "
                             "observability report (p50/p95 per phase, "
                             "events/sec, compression) to PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the demo; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.serve:
        return _serve(args)
    for flag, value in (
        ("--wal-dir", args.wal_dir),
        ("--chaos", args.chaos),
        ("--chaos-seed", args.chaos_seed),
    ):
        if value is not None:
            # Only the live service reads it: a batch run would ignore it.
            parser.error(f"{flag} needs --serve")
    if args.metrics_json:
        # A fresh scoped registry: repeated in-process runs don't bleed
        # metrics into each other, and the global one stays untouched.
        with obs.activate(obs.MetricsRegistry()):
            return _run(args)
    return _run(args)


def _build_pipeline_inputs(args: argparse.Namespace):
    """The (world, simulator, fleet, specs, config) a run needs."""
    world = build_aegean_world()
    simulator = FleetSimulator(
        world, seed=args.seed, duration_seconds=int(args.hours * 3600)
    )
    fleet = simulator.build_mixed_fleet(args.vessels)
    specs = {vessel.mmsi: vessel.spec for vessel in fleet}
    config = SystemConfig(
        window=WindowSpec.of_minutes(args.window_hours * 60, args.slide_minutes),
        pairwise=args.pairwise,
    )
    return world, simulator, fleet, specs, config


def _serve(args: argparse.Namespace) -> int:
    """Run the live service until a signal drains it."""
    import asyncio

    from repro.service import ServiceConfig, run_service

    world, _, _, specs, config = _build_pipeline_inputs(args)
    service = ServiceConfig(
        host=args.host,
        ingest_port=args.port,
        feed_port=args.port + 1 if args.port else 0,
        http_port=args.port + 2 if args.port else 0,
        ingest_transport=args.ingest_transport,
        feed_transport=args.feed_transport,
        wal_dir=args.wal_dir,
        wal_fsync=args.fsync,
    )
    _install_chaos(args)
    # /metrics serves the global registry, so collection is on for the
    # whole lifetime of the service.
    obs.enable()
    supervisor = asyncio.run(run_service(world, specs, config, service))
    if args.metrics_json:
        from repro.obs.report import build_pipeline_report, write_report

        report = build_pipeline_report(
            supervisor.system,
            obs.get_registry(),
            config={
                "serve": True,
                "vessels": args.vessels,
                "seed": args.seed,
                "window_hours": args.window_hours,
                "slide_minutes": args.slide_minutes,
            },
        )
        write_report(report, args.metrics_json)
        print(f"metrics report written to {args.metrics_json}")
    return 0


def _install_chaos(args: argparse.Namespace) -> None:
    """Install the ``--chaos`` / ``--chaos-seed`` fault plan, if any."""
    if not args.chaos and args.chaos_seed is None:
        return
    from repro.resilience import FaultPlan, install, seedable_sites

    plan = args.chaos or FaultPlan.seeded(args.chaos_seed, sites=seedable_sites())
    install(plan)
    print(f"chaos plan installed: {plan.to_spec()}")


def _run(args: argparse.Namespace) -> int:
    world, simulator, fleet, specs, config = _build_pipeline_inputs(args)
    system = SurveillanceSystem(world, specs, config)
    stream = simulator.positions(fleet)
    print(
        f"simulating {len(fleet)} vessels / {len(stream)} positions over "
        f"{args.hours:g} h (omega={args.window_hours:g} h, "
        f"beta={args.slide_minutes:g} min)"
    )

    replayer = StreamReplayer(
        [TimedArrival(p.timestamp, p) for p in stream],
        slide_seconds=config.window.slide_seconds,
    )
    seen_alerts: set = set()
    for query_time, batch in replayer.batches():
        report = system.process_slide(batch, query_time)
        for alert in report.alerts:
            key = (alert.kind, alert.area, alert.since, alert.mmsi)
            if key in seen_alerts:
                continue
            seen_alerts.add(key)
            vessel = f" vessel={alert.mmsi}" if alert.mmsi else ""
            print(f"  [t={query_time:>6}] {alert.kind} @ {alert.area}{vessel}")
    system.finalize()

    print("\n--- summary ---")
    stats = system.statistics
    print(f"compression: {stats.critical_points} critical points from "
          f"{stats.raw_positions} raw ({stats.compression_ratio:.1%} dropped)")
    print("avg per-slide cost:",
          ", ".join(f"{phase}={seconds * 1000:.1f}ms"
                    for phase, seconds in system.timings.averages().items()))
    print("\n" + compute_trip_statistics(system.database).format_table())

    if args.kml:
        with open(args.kml, "w", encoding="utf-8") as handle:
            handle.write(system.export_kml())
        print(f"\nKML written to {args.kml}")

    if args.metrics_json:
        from repro.obs.report import build_pipeline_report, write_report

        report = build_pipeline_report(
            system,
            obs.get_registry(),
            config={
                "vessels": args.vessels,
                "hours": args.hours,
                "seed": args.seed,
                "window_hours": args.window_hours,
                "slide_minutes": args.slide_minutes,
                "pairwise": args.pairwise,
            },
        )
        write_report(report, args.metrics_json)
        print(f"\nmetrics report written to {args.metrics_json}")
    system.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

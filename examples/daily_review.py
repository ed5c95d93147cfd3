"""Retrospective end-of-day review with partitioned recognition.

Section 4.2: "CE recognition may be performed retrospectively — e.g., at
the end of each day in order to evaluate the activity of a particular fleet
of vessels."  This script records a full day of movement events, replays
recognition over the whole history after the fact, and compares a
single-engine run against the east/west two-partition setup of Section 5.2
— same alerts, roughly half the per-query cost.

Run::

    python examples/daily_review.py
"""

from repro import (
    FleetSimulator,
    PartitionedRecognizer,
    StreamReplayer,
    TimedArrival,
    build_aegean_world,
)
from repro.tracking import ColumnarTracker


def review(world, specs, batches, partitions):
    """Replay a day of ME batches; return (alerts, avg step seconds)."""
    recognizer = PartitionedRecognizer(
        world, specs, window_seconds=6 * 3600, partitions=partitions
    )
    costs = []
    for query_time, events in batches:
        recognizer.ingest(events, arrival_time=query_time)
        _, timing = recognizer.step(query_time)
        costs.append(timing.parallel_seconds)
    return recognizer.alerts(), sum(costs) / len(costs)


def main() -> None:
    world = build_aegean_world()
    simulator = FleetSimulator(world, seed=99, duration_seconds=24 * 3600)
    fleet = simulator.build_mixed_fleet(80)
    specs = {vessel.mmsi: vessel.spec for vessel in fleet}
    stream = simulator.positions(fleet)
    print(f"reviewing one day: {len(fleet)} vessels, {len(stream)} positions")

    # Phase 1 (during the day): tracking ran online; the critical MEs were
    # logged per hourly slide.
    tracker = ColumnarTracker()
    batches = []
    replayer = StreamReplayer(
        [TimedArrival(p.timestamp, p) for p in stream], slide_seconds=3600
    )
    for query_time, batch in replayer.batches():
        batches.append((query_time, tracker.process_batch(batch)))
    final = tracker.finalize()
    if final:
        batches[-1] = (batches[-1][0], batches[-1][1] + final)
    total_mes = sum(len(events) for _, events in batches)
    print(f"logged movement events: {total_mes} "
          f"({len(stream) / max(1, total_mes):.0f} positions per ME)\n")

    # Phase 2 (after midnight): retrospective recognition, 1 vs 2 engines.
    single_alerts, single_cost = review(world, specs, batches, partitions=1)
    split_alerts, split_cost = review(world, specs, batches, partitions=2)

    print(f"single engine : {len(single_alerts)} alerts, "
          f"{single_cost * 1000:.1f} ms per query")
    print(f"east/west pair: {len(split_alerts)} alerts, "
          f"{split_cost * 1000:.1f} ms per query (parallel)")

    print("\nthe day's incident log:")
    for alert in single_alerts:
        until = "ongoing" if alert.until is None else f"t={alert.until}"
        vessel = f", vessel {alert.mmsi}" if alert.mmsi else ""
        print(f"  [{alert.kind}] area {alert.area}: t={alert.since} .. {until}{vessel}")
    if not single_alerts:
        print("  (a quiet day at sea)")


if __name__ == "__main__":
    main()

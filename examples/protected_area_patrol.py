"""Scenario 3 of the paper: catching transponder-silent protected-area runs.

Tankers minimizing fuel cut through marine parks with their AIS transmitters
switched off, claiming breakdowns.  The gap ME fires where the silence began
and ``illegalShipping(Area)`` is recognized when that point is close to a
protected area — this script shows the whole chain, including the raw gap
events the tracker detected.

Run::

    python examples/protected_area_patrol.py
"""

from repro import (
    FleetSimulator,
    MaritimeRecognizer,
    MovementEventType,
    StreamReplayer,
    TimedArrival,
    build_aegean_world,
)
from repro.tracking import ColumnarTracker


def main() -> None:
    world = build_aegean_world()
    simulator = FleetSimulator(world, seed=42, duration_seconds=5 * 3600)
    offenders = simulator.build_scenario_illegal_shipping(3)
    # Honest traffic shares the sea: it must not be flagged.
    honest = simulator.build_mixed_fleet(15, deviant_fraction=0.0)
    fleet = offenders + honest
    specs = {vessel.mmsi: vessel.spec for vessel in fleet}
    print("deviant tankers:", [vessel.mmsi for vessel in offenders])

    tracker = ColumnarTracker()
    recognizer = MaritimeRecognizer(world, specs, window_seconds=5 * 3600)

    stream = simulator.positions(fleet)
    replayer = StreamReplayer(
        [TimedArrival(p.timestamp, p) for p in stream], slide_seconds=1800
    )
    query_time = 0
    for query_time, batch in replayer.batches():
        events = tracker.process_batch(batch)
        for event in events:
            if event.event_type is MovementEventType.GAP_START:
                print(
                    f"t={event.timestamp:>6}s  vessel {event.mmsi} went "
                    f"silent at ({event.lon:.3f}, {event.lat:.3f}) for "
                    f"{event.duration_seconds}s"
                )
        recognizer.ingest(events, arrival_time=query_time)
        recognizer.step(query_time)

    recognizer.ingest(tracker.finalize(), arrival_time=query_time)
    result = recognizer.step(query_time)

    print("\nrecognized complex events:")
    shipping_alerts = [
        alert
        for alert in recognizer.alerts(result)
        if alert.kind == "illegalShipping"
    ]
    for alert in shipping_alerts:
        print(
            f"  illegalShipping: vessel {alert.mmsi} near protected area "
            f"{alert.area!r} at t={alert.since}s"
        )
    flagged = {alert.mmsi for alert in shipping_alerts}
    print(f"\nflagged vessels: {sorted(flagged)}")
    honest_flagged = flagged & {vessel.mmsi for vessel in honest}
    print(f"honest vessels wrongly flagged: {sorted(honest_flagged) or 'none'}")


if __name__ == "__main__":
    main()

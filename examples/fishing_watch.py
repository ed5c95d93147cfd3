"""Scenarios 2 and 4: illegal fishing and dangerously shallow shipping.

Trawlers working forbidden-fishing grounds move "too slowly" for transit;
deep-draft ships creeping across shoals risk grounding.  Both hinge on the
slow-motion ME combined with static knowledge (fishing designation, vessel
draft versus charted depth).

Run::

    python examples/fishing_watch.py
"""

from repro import (
    FleetSimulator,
    MaritimeRecognizer,
    StreamReplayer,
    TimedArrival,
    build_aegean_world,
)
from repro.tracking import ColumnarTracker


def main() -> None:
    world = build_aegean_world()
    simulator = FleetSimulator(world, seed=13, duration_seconds=8 * 3600)
    trawlers = simulator.build_scenario_illegal_fishing(3)
    creepers = simulator.build_scenario_dangerous_shipping(2)
    legal_fishers = []
    fleet = trawlers + creepers + legal_fishers
    specs = {vessel.mmsi: vessel.spec for vessel in fleet}

    print("fleet under watch:")
    for vessel in fleet:
        role = "fishing" if vessel.spec.is_fishing else "tanker"
        print(
            f"  vessel {vessel.mmsi}: {role}, draft {vessel.spec.draft_meters:.1f} m"
        )

    tracker = ColumnarTracker()
    recognizer = MaritimeRecognizer(world, specs, window_seconds=8 * 3600)
    stream = simulator.positions(fleet)
    replayer = StreamReplayer(
        [TimedArrival(p.timestamp, p) for p in stream], slide_seconds=1800
    )
    query_time = 0
    for query_time, batch in replayer.batches():
        recognizer.ingest(tracker.process_batch(batch), arrival_time=query_time)
        recognizer.step(query_time)
    recognizer.ingest(tracker.finalize(), arrival_time=query_time)
    result = recognizer.step(query_time)

    print("\nillegal fishing episodes (maximal intervals):")
    for alert in recognizer.alerts(result):
        if alert.kind != "illegalFishing":
            continue
        until = alert.until if alert.until is not None else "ongoing"
        print(f"  area {alert.area!r}: t={alert.since} .. {until}")

    print("\ndangerous shipping occurrences:")
    for alert in recognizer.alerts(result):
        if alert.kind != "dangerousShipping":
            continue
        draft = specs[alert.mmsi].draft_meters
        depth = world.area_by_name(alert.area).depth_meters
        print(
            f"  vessel {alert.mmsi} (draft {draft:.1f} m) in {alert.area!r} "
            f"(charted {depth:.1f} m) at t={alert.since}s"
        )


if __name__ == "__main__":
    main()

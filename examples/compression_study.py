"""Trajectory compression versus accuracy: the Figures 8/9 trade-off, live.

Sweeps the turn threshold Delta-theta over the paper's grid, reporting the
critical-point volume, compression ratio, and synchronized RMSE per value,
then exports the Delta-theta = 15 synopsis as KML and GeoJSON for map
display.

Run::

    python examples/compression_study.py
"""

import json
from collections import defaultdict
from pathlib import Path

from repro import (
    FleetSimulator,
    TrackingParameters,
    TrajectoryExporter,
    build_aegean_world,
    fleet_rmse,
)
from repro.tracking import ColumnarTracker
from repro.tracking.compressor import merge_events_into_critical_points

OUTPUT_DIR = Path(__file__).parent / "out"


def compress(stream, threshold):
    """Full-history critical points per vessel at one turn threshold."""
    tracker = ColumnarTracker(
        TrackingParameters(turn_threshold_degrees=threshold)
    )
    events = tracker.process_batch(stream) + tracker.finalize()
    points = merge_events_into_critical_points(events)
    synopses = defaultdict(list)
    for point in points:
        synopses[point.mmsi].append(point)
    return dict(synopses), points


def main() -> None:
    world = build_aegean_world()
    simulator = FleetSimulator(world, seed=3, duration_seconds=12 * 3600)
    fleet = simulator.build_mixed_fleet(30)
    stream = simulator.positions(fleet)
    originals = defaultdict(list)
    for position in stream:
        originals[position.mmsi].append(position)

    print(f"{len(stream)} raw positions from {len(fleet)} vessels over 12 h\n")
    print("delta_theta  critical_pts  compression  avg_rmse_m  max_rmse_m")
    keep = None
    for threshold in (5.0, 10.0, 15.0, 20.0):
        synopses, points = compress(stream, threshold)
        error = fleet_rmse(dict(originals), synopses)
        ratio = 1.0 - len(points) / len(stream)
        print(
            f"{threshold:>11.0f}  {len(points):>12}  {ratio:>10.1%}  "
            f"{error.average:>10.1f}  {error.maximum:>10.1f}"
        )
        if threshold == 15.0:
            keep = points

    OUTPUT_DIR.mkdir(exist_ok=True)
    exporter = TrajectoryExporter()
    kml_path = OUTPUT_DIR / "synopses.kml"
    kml_path.write_text(exporter.to_kml(keep))
    geojson_path = OUTPUT_DIR / "synopses.geojson"
    geojson_path.write_text(json.dumps(exporter.to_geojson(keep), indent=2))
    print(f"\nexported {kml_path} and {geojson_path}")


if __name__ == "__main__":
    main()

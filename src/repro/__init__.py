"""Event Recognition for Maritime Surveillance — EDBT 2015 reproduction.

A faithful, self-contained Python implementation of the maritime
surveillance system of Patroumpas, Artikis, Katzouris, Vodas, Theodoridis
and Pelekis (EDBT 2015): online trajectory detection and compression over
streaming AIS positions, plus complex event recognition with a from-scratch
Event Calculus engine (RTEC), backed by a Moving Objects Database and a
synthetic Aegean fleet simulator standing in for the proprietary dataset.

Quickstart::

    from repro import (
        FleetSimulator, SurveillanceSystem, SystemConfig, WindowSpec,
        StreamReplayer, TimedArrival, build_aegean_world,
    )

    world = build_aegean_world()
    simulator = FleetSimulator(world, seed=7, duration_seconds=4 * 3600)
    fleet = simulator.build_mixed_fleet(50)
    specs = {vessel.mmsi: vessel.spec for vessel in fleet}

    system = SurveillanceSystem(
        world, specs, SystemConfig(window=WindowSpec.of_hours(2, 0.5))
    )
    stream = simulator.positions(fleet)
    replayer = StreamReplayer(
        [TimedArrival(p.timestamp, p) for p in stream],
        slide_seconds=1800,
    )
    for query_time, batch in replayer.batches():
        report = system.process_slide(batch, query_time)
        for alert in report.alerts:
            print(alert)
    system.finalize()
"""

from repro import obs
from repro.ais import DataScanner, DelayModel, PositionalTuple, StreamReplayer
from repro.ais.stream import TimedArrival
from repro.maritime import (
    Alert,
    MaritimeConfig,
    MaritimeRecognizer,
    PartitionedRecognizer,
)
from repro.mod import MovingObjectDatabase, compute_od_matrix, compute_trip_statistics
from repro.obs import MetricsRegistry
from repro.pipeline import SlideReport, SurveillanceSystem, SystemConfig
from repro.reconstruct import TripSegmenter, fleet_rmse, trajectory_rmse
from repro.rtec import RTEC
from repro.simulator import FleetSimulator, build_aegean_world
from repro.tracking import (
    Compressor,
    CriticalPoint,
    MovementEvent,
    MovementEventType,
    TrackingParameters,
    TrajectoryExporter,
    WindowSpec,
)

__version__ = "1.0.0"

__all__ = [
    "Alert",
    "Compressor",
    "CriticalPoint",
    "DataScanner",
    "DelayModel",
    "FleetSimulator",
    "MaritimeConfig",
    "MaritimeRecognizer",
    "MetricsRegistry",
    "MovementEvent",
    "MovementEventType",
    "MovingObjectDatabase",
    "PartitionedRecognizer",
    "PositionalTuple",
    "RTEC",
    "SlideReport",
    "StreamReplayer",
    "SurveillanceSystem",
    "SystemConfig",
    "TimedArrival",
    "TrackingParameters",
    "TrajectoryExporter",
    "TripSegmenter",
    "WindowSpec",
    "build_aegean_world",
    "compute_od_matrix",
    "compute_trip_statistics",
    "fleet_rmse",
    "obs",
    "trajectory_rmse",
    "__version__",
]

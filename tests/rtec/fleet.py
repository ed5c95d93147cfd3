"""The ``recognition_replay`` benchmark fleet, for RTEC tests on real input.

The same scenario as ``benchmarks/e2e/inputs.simulate``: 150 vessels of the
standard fleet (the rendezvous scenario first), routes fixed by seed 2015,
and ``seed`` drawing only the GPS noise of every fix.  Tests see it as
per-slide position batches, like the pipeline does.
"""

import random
from functools import lru_cache

from repro.ais.stream import PositionalTuple, StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.simulator import FleetSimulator, build_aegean_world
from repro.simulator.noise import NO_NOISE, NoiseModel
from repro.tracking import WindowSpec

FLEET_SIZE = 150
SCENARIO_SEED = 2015
HOURS = 12
WINDOW = WindowSpec.of_minutes(120, 30)

#: The pipeline configuration of the ``recognition_replay`` workload.
RECOGNITION_REPLAY = SystemConfig(
    window=WINDOW,
    pairwise=True,
    recognition_window_seconds=9 * 3600,
    reconstruct_each_slide=False,
)


@lru_cache(maxsize=2)
def recognition_fleet(seed: int):
    """``(world, specs, batches)``: the fleet and its per-slide batches."""
    world = build_aegean_world()
    simulator = FleetSimulator(
        world,
        seed=SCENARIO_SEED,
        duration_seconds=HOURS * 3600,
        noise=NO_NOISE,
    )
    vessels = simulator.build_scenario_rendezvous()
    vessels += simulator.build_mixed_fleet(FLEET_SIZE - len(vessels))
    specs = {vessel.mmsi: vessel.spec for vessel in vessels}
    rng = random.Random(seed)
    noise = NoiseModel()
    arrivals = []
    for track in simulator.positions(vessels):
        lon, lat, _ = noise.perturb(rng, track.lon, track.lat)
        position = PositionalTuple(track.mmsi, lon, lat, track.timestamp)
        arrivals.append(TimedArrival(position.timestamp, position))
    batches = list(StreamReplayer(arrivals, WINDOW.slide_seconds).batches())
    return world, specs, batches


def system_for(seed: int, config: SystemConfig) -> SurveillanceSystem:
    """A fresh system over the fleet of ``seed``."""
    world, specs, _ = recognition_fleet(seed)
    return SurveillanceSystem(world, specs, config)


def replay(system: SurveillanceSystem, seed: int) -> None:
    """Run the fleet's slides and the final flush through ``system``."""
    try:
        for query_time, batch in recognition_fleet(seed)[2]:
            system.process_slide(batch, query_time)
        system.finalize()
    finally:
        system.database.close()

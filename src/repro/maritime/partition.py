"""Spatial partitioning for parallel CE recognition (Section 5.2).

"One processor performed CE recognition for the areas located in, and the
vessels passing through the west part of the area under surveillance.
Similarly, the other processor performed CE recognition for the areas
located in, and the vessels passing through the east part...  The input MEs
are forwarded to the appropriate processor (according to vessel location)."

:func:`partition_world` slices the monitored region into longitude bands;
:class:`PartitionedRecognizer` runs one engine per band, routes each ME by
its longitude, and reports per-partition recognition times.

Two very different "parallel" figures exist, and they must not be
conflated:

* **Simulated** — :class:`PartitionedRecognizer` runs its engines
  *sequentially* in one process; the
  :attr:`PartitionStepTiming.parallel_seconds` it reports is the maximum
  over partitions, i.e. the wall-clock an ideal deployment *would* see.
  This matches the paper's per-processor measurement but involves no
  actual concurrency.
* **Measured** — under :mod:`repro.runtime`, each band engine runs on its
  own worker process and
  :attr:`PartitionStepTiming.measured_parallel_seconds` is the true
  wall-clock of the concurrent recognition step, inter-process overheads
  included.  :class:`~repro.runtime.system.ParallelSurveillanceSystem`
  fills it in on every slide (``last_partition_timing``).
"""

from dataclasses import dataclass

from repro.maritime.config import MaritimeConfig
from repro.maritime.recognizer import Alert, MaritimeRecognizer
from repro.rtec.engine import RecognitionResult
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import BoundingBox, WorldModel
from repro.tracking.types import MovementEvent


def partition_world(world: WorldModel, partitions: int) -> list[WorldModel]:
    """Slice a world into equal-width longitude bands.

    Areas are assigned to the band containing their centroid; ports are
    shared (they only matter offline).  Two bands reproduce the paper's
    east/west setup.
    """
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    if partitions == 1:
        return [world]
    width = (world.bbox.max_lon - world.bbox.min_lon) / partitions
    bands: list[WorldModel] = []
    for index in range(partitions):
        lo = world.bbox.min_lon + index * width
        hi = world.bbox.min_lon + (index + 1) * width
        bands.append(
            WorldModel(
                BoundingBox(lo, world.bbox.min_lat, hi, world.bbox.max_lat),
                ports=list(world.ports),
                areas=[
                    area
                    for area in world.areas
                    if lo <= area.polygon.centroid[0] < hi
                    or (index == partitions - 1 and area.polygon.centroid[0] == hi)
                ],
            )
        )
    return bands


@dataclass
class PartitionStepTiming:
    """Per-partition recognition cost of one query step.

    ``measured_parallel_seconds`` stays ``None`` when the partitions ran
    sequentially in-process (the :class:`PartitionedRecognizer` default);
    the process-parallel runtime sets it to the real wall-clock of the
    concurrent step, which includes routing and IPC and therefore upper-
    bounds the simulated :attr:`parallel_seconds`.
    """

    per_partition_seconds: list[float]
    measured_parallel_seconds: float | None = None

    @property
    def sequential_seconds(self) -> float:
        """Single-processor equivalent: the sum over partitions."""
        return sum(self.per_partition_seconds)

    @property
    def parallel_seconds(self) -> float:
        """*Simulated* parallel wall-clock: the slowest partition."""
        return max(self.per_partition_seconds) if self.per_partition_seconds else 0.0


class PartitionedRecognizer:
    """CE recognition over longitude-partitioned engines.

    The engines run sequentially in the calling process; the "parallel"
    figure of :meth:`step` is therefore *simulated* (max over partitions).
    For genuinely concurrent band recognition — with the measured
    wall-clock reported alongside the simulation — run the pipeline under
    :class:`repro.runtime.ParallelSurveillanceSystem`.
    """

    def __init__(
        self,
        world: WorldModel,
        specs: dict[int, VesselSpec],
        window_seconds: int,
        partitions: int = 2,
        config: MaritimeConfig | None = None,
    ):
        self.bands = partition_world(world, partitions)
        self.recognizers = [
            MaritimeRecognizer(band, specs, window_seconds, config)
            for band in self.bands
        ]

    def ingest(
        self, events: list[MovementEvent], arrival_time: int | None = None
    ) -> int:
        """Route each ME to the partition covering its longitude."""
        count = 0
        for event in events:
            recognizer = self._route(event.lon)
            count += recognizer.ingest([event], arrival_time)
        return count

    def step(
        self, query_time: int
    ) -> tuple[list[RecognitionResult], PartitionStepTiming]:
        """Run every partition's recognition; report per-partition timings."""
        results = []
        timings = []
        for recognizer in self.recognizers:
            results.append(recognizer.step(query_time))
            timings.append(recognizer.last_step_seconds)
        return results, PartitionStepTiming(timings)

    def alerts(self) -> list[Alert]:
        """Union of the partitions' alerts."""
        merged: list[Alert] = []
        for recognizer in self.recognizers:
            merged.extend(recognizer.alerts())
        merged.sort(key=lambda alert: (alert.since, alert.kind, alert.area))
        return merged

    def _route(self, lon: float) -> MaritimeRecognizer:
        for band, recognizer in zip(self.bands, self.recognizers):
            if lon < band.bbox.max_lon:
                return recognizer
        return self.recognizers[-1]

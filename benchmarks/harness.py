"""Shared fleet fixtures for the per-figure reproduction benchmarks.

Every ``bench_*.py`` regenerates one table or figure of the paper's Section 5,
scaled from the 6,425-vessel / 3-month IMIS dataset down to a synthetic
fleet that runs on a laptop.  Absolute times therefore differ from the
paper; the *shapes* — linear growth with the slide step, compression around
94 %, CE recognition time growing with the window and halving with two
processors — are the reproduction targets (see EXPERIMENTS.md).

The module caches the expensive artifacts (fleet, stream, movement events)
per configuration so the parameter sweeps share them.  How fast the
assembled system runs is ``benchmarks/e2e``'s question
(docs/PERFORMANCE.md); the sweeps and fault drills that need a live
service or a gateway cluster are ``benchmarks/drills.py``.
"""

import time
from functools import lru_cache
from pathlib import Path

from repro.ais import PositionReport, encode_position_report, wrap_aivdm
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.simulator import FleetSimulator, build_aegean_world
from repro.tracking import (
    ColumnarTracker,
    Compressor,
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


def encode_sentences(stream) -> list[tuple[int, str]]:
    """The stream as ``(receive_time, !AIVDM sentence)`` pairs (type 1)."""
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
    return sentences


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
    tracker = ColumnarTracker(parameters or TrackingParameters())
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
    tracker = ColumnarTracker(parameters or TrackingParameters())
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

    tracker = ColumnarTracker(parameters or TrackingParameters())
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

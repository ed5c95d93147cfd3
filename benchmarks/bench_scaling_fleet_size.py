"""Scalability sweep: end-to-end cost versus fleet size.

The paper's abstract claims the system "scales to high velocity data
streams expressing the current activity of large fleets"; Table 2 fixes
N = 6,425.  This extra bench sweeps the fleet size and verifies that both
pipeline stages scale gracefully: per-slide tracking cost grows roughly
linearly with the fleet (stream volume), and CE recognition cost grows with
the ME volume rather than the raw position volume — the compression paying
off downstream.
"""

import pytest

from harness import benchmark_world, record_result
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.maritime import MaritimeRecognizer
from repro.simulator import FleetSimulator
from repro.tracking import ColumnarTracker, Compressor, WindowSpec

FLEET_SIZES = (50, 100, 200)
DURATION = 8 * 3600

_results: dict[int, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def emit_report():
    """Write the scaling table."""
    yield
    if len(_results) < len(FLEET_SIZES):
        return
    lines = [
        "fleet  positions  MEs    tracking_s/slide  recognition_s/step  "
        "positions_per_ME"
    ]
    for size, stats in sorted(_results.items()):
        lines.append(
            f"{size:>5}  {stats['positions']:>9}  {stats['mes']:>5}  "
            f"{stats['tracking']:>16.4f}  {stats['recognition']:>18.4f}  "
            f"{stats['positions'] / max(1, stats['mes']):>16.1f}"
        )
    record_result("scaling_fleet_size", lines)
    # Tracking cost grows with the fleet; recognition stays sub-linear in
    # raw positions thanks to the critical-point reduction.
    assert _results[200]["tracking"] > _results[50]["tracking"]
    ratio_positions = _results[200]["positions"] / _results[50]["positions"]
    ratio_recognition = max(_results[200]["recognition"], 1e-9) / max(
        _results[50]["recognition"], 1e-9
    )
    assert ratio_recognition < ratio_positions * 2.0


@pytest.mark.parametrize("size", FLEET_SIZES)
def test_fleet_scaling(benchmark, size):
    simulator = FleetSimulator(
        benchmark_world(), seed=909, duration_seconds=DURATION
    )
    fleet = simulator.build_mixed_fleet(size)
    specs = {vessel.mmsi: vessel.spec for vessel in fleet}
    stream = simulator.positions(fleet)
    window = WindowSpec.of_hours(2, 0.5)

    def run():
        import time

        tracker = ColumnarTracker()
        compressor = Compressor(window)
        recognizer = MaritimeRecognizer(
            benchmark_world(), specs, window_seconds=2 * 3600
        )
        arrivals = [TimedArrival(p.timestamp, p) for p in stream]
        tracking_costs = []
        recognition_costs = []
        total_mes = 0
        for query_time, batch in StreamReplayer(arrivals, 1800).batches():
            started = time.perf_counter()
            events = tracker.process_batch(batch)
            compressor.slide(events, query_time, raw_position_count=len(batch))
            tracking_costs.append(time.perf_counter() - started)
            total_mes += recognizer.ingest(events, arrival_time=query_time)
            recognizer.step(query_time)
            recognition_costs.append(recognizer.last_step_seconds)
        return {
            "positions": len(stream),
            "mes": total_mes,
            "tracking": sum(tracking_costs) / len(tracking_costs),
            "recognition": sum(recognition_costs) / len(recognition_costs),
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    _results[size] = stats
    benchmark.extra_info.update(
        {
            "positions": stats["positions"],
            "tracking_s_per_slide": round(stats["tracking"], 4),
            "recognition_s_per_step": round(stats["recognition"], 4),
        }
    )

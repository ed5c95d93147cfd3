"""Figure 11(a): complex event recognition time, on-demand spatial reasoning.

Paper setup: slide beta = 1 h; window range omega in {1, 2, 6, 9} hours;
6,425 vessels and 35 areas; recognition run on one processor, then on two
processors each owning the west/east half of the monitored area.  Metric:
average CE recognition time per query.

Two engines are timed side by side on the same ME batches:

* ``oracle`` — the paper's algorithm, re-deriving every CE over the whole
  working memory at each query time (``tests/rtec/oracle.py``).  The
  paper's shape assertions apply to it: recognition time grows with omega
  (more MEs in the working memory), and the two-processor partitioning
  yields a significant speedup (each engine sees fewer MEs and maintains
  fewer CE intervals).  An extra 4-partition column shows the trend
  continuing, as the paper suggests ("one may further distribute CE
  recognition by dividing further the monitored area").
* ``incremental`` — the shipped engine, which folds each query's new and
  invalidated rule triggers into what earlier queries derived, so its cost
  follows the new MEs (beta) rather than the window (omega).  It must be at
  least 3x faster than the oracle at omega = 9 h on one processor, and
  recognize the same CEs everywhere.

Each configuration keeps the fastest of :data:`ROUNDS` replays: the times
are raw wall-clock on a shared host, and a slow regime during one replay
must not decide a shape assertion.  The two gates at omega = 9 h (the 3x
gate, and two oracle processors beating one) do not compare two cells,
which ran minutes apart: each feeds its two recognizers the same batches
and steps them in turn at each query time, so a slow moment of the host
costs both alike, and compares their summed step times over
:data:`ROUNDS` such replays.
"""

import pytest

from harness import (
    benchmark_fleet,
    benchmark_world,
    collect_movement_events,
    record_result,
)
from repro.maritime import PartitionedRecognizer
from tests.rtec.oracle import OracleRTEC

WINDOW_HOURS = (1, 2, 6, 9)
PARTITIONS = (1, 2, 4)
ENGINES = ("oracle", "incremental")
ROUNDS = 3

_results: dict[tuple[int, int, str], dict] = {}


def _me_batches():
    _, specs, stream = benchmark_fleet()
    return specs, collect_movement_events(stream)


@pytest.fixture(scope="module", autouse=True)
def emit_report():
    """Write the Figure 11(a) series once the sweep completes."""
    yield
    if len(_results) < len(WINDOW_HOURS) * len(PARTITIONS) * len(ENGINES):
        return
    lines = [
        "omega_hours  partitions  oracle_seconds  incremental_seconds  "
        "speedup  window_MEs  recognized_CEs"
    ]
    for hours in WINDOW_HOURS:
        for partitions in PARTITIONS:
            oracle = _results[(hours, partitions, "oracle")]
            incremental = _results[(hours, partitions, "incremental")]
            lines.append(
                f"{hours:>11}  {partitions:>10}  "
                f"{oracle['avg_seconds']:>14.4f}  "
                f"{incremental['avg_seconds']:>19.4f}  "
                f"{oracle['avg_seconds'] / incremental['avg_seconds']:>7.1f}  "
                f"{oracle['window_mes']:>10}  {oracle['ces']:>14}"
            )
            # Both engines recognize the same CEs.
            assert incremental["ces"] == oracle["ces"], (hours, partitions)
    record_result("fig11a_ce_recognition", lines)

    def seconds(hours, partitions, engine):
        return _results[(hours, partitions, engine)]["avg_seconds"]

    # The paper's algorithm: recognition time grows with omega.
    for partitions in PARTITIONS:
        series = [seconds(h, partitions, "oracle") for h in WINDOW_HOURS]
        assert series[-1] > series[0], series


def _recognizer(specs, hours: int, partitions: int, engine: str):
    recognizer = PartitionedRecognizer(
        benchmark_world(), specs, hours * 3600, partitions=partitions
    )
    if engine == "oracle":
        for band in recognizer.recognizers:
            band.engine = OracleRTEC.like(band.engine)
    return recognizer


def _step_for_step(configurations) -> dict[tuple[int, str], float]:
    """Summed step seconds at omega = 9 h of each ``(partitions, engine)``
    configuration over :data:`ROUNDS` replays, the recognizers fed the
    same batches and stepped in turn at each query time."""
    specs, batches = _me_batches()
    seconds = {configuration: 0.0 for configuration in configurations}
    for _ in range(ROUNDS):
        recognizers = {
            configuration: _recognizer(specs, 9, *configuration)
            for configuration in configurations
        }
        for query_time, events in batches:
            for configuration, recognizer in recognizers.items():
                recognizer.ingest(events, arrival_time=query_time)
                _, timing = recognizer.step(query_time)
                # Parallel wall-clock: the slowest partition.
                seconds[configuration] += timing.parallel_seconds
    return seconds


def test_incremental_is_3x_the_oracle_step_for_step():
    """The shipped engine re-derives only what changed: at omega = 9 h on
    one processor its summed step time is at most a third of the
    oracle's."""
    seconds = _step_for_step([(1, "oracle"), (1, "incremental")])
    assert seconds[1, "oracle"] >= 3 * seconds[1, "incremental"], (
        "incremental recognition should be at least 3x the from-scratch oracle",
        seconds,
    )


def test_two_oracle_processors_beat_one_step_for_step():
    """Figure 11(a)'s shape: at omega = 9 h the 2-partition oracle's
    summed step time is below the 1-partition oracle's."""
    seconds = _step_for_step([(1, "oracle"), (2, "oracle")])
    assert seconds[2, "oracle"] < seconds[1, "oracle"], (
        "partitioning should reduce per-query recognition time",
        seconds,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("partitions", PARTITIONS)
@pytest.mark.parametrize("hours", WINDOW_HOURS)
def test_ce_recognition(benchmark, hours, partitions, engine):
    specs, batches = _me_batches()

    def replay():
        recognizer = _recognizer(specs, hours, partitions, engine)
        step_seconds = []
        total_ces = 0
        window_mes = 0
        for query_time, events in batches:
            recognizer.ingest(events, arrival_time=query_time)
            results, timing = recognizer.step(query_time)
            # Parallel wall-clock: the slowest partition.
            step_seconds.append(timing.parallel_seconds)
            total_ces = sum(result.complex_event_count() for result in results)
            window_mes = sum(
                band.engine.working_memory.event_count()
                for band in recognizer.recognizers
            )
        return {
            "avg_seconds": sum(step_seconds) / len(step_seconds),
            "ces": total_ces,
            "window_mes": window_mes,
        }

    def run():
        return min(
            (replay() for _ in range(ROUNDS)), key=lambda stats: stats["avg_seconds"]
        )

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    _results[(hours, partitions, engine)] = stats
    benchmark.extra_info.update(
        {
            "avg_recognition_seconds": round(stats["avg_seconds"], 4),
            "window_MEs": stats["window_mes"],
            "recognized_CEs": stats["ces"],
        }
    )

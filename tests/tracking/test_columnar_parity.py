"""The columnar kernel's hard invariant: byte-identical event streams.

``ColumnarTracker`` reorganizes the Mobility Tracker's hot path around
per-vessel columns, but it is a *kernel*, not an approximation: on any
input, slide by slide, it must emit exactly the events the scalar
reference ``MobilityTracker`` (``tests/tracking/oracle.py``) emits — same
order, same floats, same reprs.  These tests pin that twin contract on a
full simulator fleet (directly and through the sharded runtime at 1 and 2
shards) and on the adversarial per-batch shapes the columnar grouping
has to get right: empty slides, single-position vessels, out-of-order
timestamps within a batch, and a vessel whose whole history is one stop
run.
"""

import pytest

from repro.ais.stream import PositionalTuple, StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.simulator import FleetSimulator
from repro.tracking import ColumnarTracker, WindowSpec
from tests.parity import replay_transcript
from tests.tracking.helpers import TraceBuilder
from tests.tracking.oracle import MobilityTracker


def _slides(stream, slide_seconds=1800):
    """The stream cut into window slides, as the pipeline feeds them."""
    arrivals = [TimedArrival(p.timestamp, p) for p in stream]
    return [batch for _, batch in StreamReplayer(arrivals, slide_seconds).batches()]


def _transcript(tracker, slides):
    """Everything observable from a tracker, repr'd for byte comparison."""
    per_slide = [[repr(e) for e in tracker.process_batch(batch)] for batch in slides]
    final = [repr(e) for e in tracker.finalize()]
    mmsis = {p.mmsi for batch in slides for p in batch}
    vessels = {
        mmsi: (
            repr(tracker.current_velocity(mmsi)),
            repr(tracker.traveled_distance_meters(mmsi)),
        )
        for mmsi in sorted(mmsis)
    }
    return {
        "slides": per_slide,
        "finalize": final,
        "vessel_count": tracker.vessel_count(),
        "vessels": vessels,
    }


@pytest.fixture(scope="module")
def sim_slides(world):
    """A full mixed simulator fleet, cut into 30-minute slides."""
    simulator = FleetSimulator(world, seed=2015, duration_seconds=8 * 3600)
    fleet = simulator.build_mixed_fleet(40)
    return _slides(simulator.positions(fleet))


@pytest.fixture(scope="module")
def scalar_transcript(sim_slides):
    transcript = _transcript(MobilityTracker(), sim_slides)
    # The fleet must actually exercise the kernels, or parity is vacuous.
    assert sum(len(s) for s in transcript["slides"]) > 100
    assert transcript["vessel_count"] == 40
    return transcript


def test_full_fleet_parity(sim_slides, scalar_transcript):
    """The columnar kernel reproduces the scalar stream byte for byte."""
    transcript = _transcript(ColumnarTracker(), sim_slides)
    assert transcript == scalar_transcript


def test_tagged_batch_parity(sim_slides):
    """The sharded runtime's tagged path agrees tag-by-tag with scalar."""
    scalar, columnar = MobilityTracker(), ColumnarTracker()
    for batch in sim_slides[:8]:
        indexed = list(enumerate(batch))
        assert (
            repr(columnar.process_batch_tagged(indexed))
            == repr(scalar.process_batch_tagged(indexed))
        )


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_parity_with_scalar_single_process(world, small_fleet, shards):
    """End to end at 1 and 2 shards: columnar workers vs the scalar pipeline.

    The parallel runtime runs the columnar kernel inside its shard
    workers; the reference is the single-process pipeline with the scalar
    tracker swapped in before the first slide.  Alerts, critical points
    and event counts must match exactly — the kernel swap and the
    sharding both have to be invisible.
    """
    from repro.runtime import ParallelSurveillanceSystem

    config = SystemConfig(window=WindowSpec.of_hours(2, 0.5))
    with SurveillanceSystem(world, small_fleet["specs"], config) as system:
        system.tracker = MobilityTracker(config.tracking)
        reference = replay_transcript(system, small_fleet["stream"])
    assert any(s["alerts"] for s in reference["slides"]), "no alerts raised"
    with ParallelSurveillanceSystem(
        world, small_fleet["specs"], config, shards=shards
    ) as system:
        assert replay_transcript(system, small_fleet["stream"]) == reference


# ---------------------------------------------------------------------------
# per-batch edge cases the columnar grouping has to get right
# ---------------------------------------------------------------------------


def _assert_edge_parity(batches):
    """Both kernels agree on a hand-built batch sequence."""
    transcripts = [
        (
            [[repr(e) for e in tracker.process_batch(b)] for b in batches],
            [repr(e) for e in tracker.finalize()],
            tracker.vessel_count(),
        )
        for tracker in (MobilityTracker(), ColumnarTracker())
    ]
    assert transcripts[1] == transcripts[0]
    return transcripts[0]


def test_empty_slide():
    """An empty slide emits nothing and disturbs no state."""
    trace = TraceBuilder(mmsi=7).cruise(90, 12, 10).build()
    reference = _assert_edge_parity([trace[:5], [], trace[5:]])
    continuous = _assert_edge_parity([trace[:5], trace[5:]])
    assert reference[0][0] == continuous[0][0]
    assert reference[0][2] == continuous[0][1]
    assert reference[0][1] == []


def test_single_position_vessel():
    """A vessel that reports once has a state but no pair chain yet."""
    lone = PositionalTuple(42, 24.5, 38.5, 300)
    crowd = TraceBuilder(mmsi=9).cruise(45, 10, 6).build()
    reference = _assert_edge_parity([crowd + [lone]])
    assert reference[2] == 2
    tracker = ColumnarTracker()
    tracker.process_batch(crowd + [lone])
    assert tracker.current_velocity(42) is None
    assert tracker.traveled_distance_meters(42) == 0.0


def test_out_of_order_timestamps_within_batch():
    """A regressed timestamp inside one batch is handled identically.

    The columnar kernels group by vessel but must preserve *arrival*
    order per vessel, including non-monotone timestamps (dt <= 0 takes
    the scalar gap/reset path, never a crash or a reorder).
    """
    trace = TraceBuilder(mmsi=3).cruise(180, 14, 12).build()
    other = TraceBuilder(mmsi=4, lon=25.0).cruise(0, 9, 12).build()
    batch = sorted(trace + other, key=lambda p: p.timestamp)
    # Regress vessel 3 mid-batch: re-report its 3rd position after its 8th.
    stale = trace[3]._replace(timestamp=trace[3].timestamp)
    index = batch.index(trace[8])
    batch.insert(index + 1, stale)
    _assert_edge_parity([batch])


def test_all_stop_vessel():
    """A vessel whose entire history is one anchored stop run."""
    trace = (
        TraceBuilder(mmsi=11)
        .halt(30, interval=120, jitter_meters=8.0)
        .build()
    )
    reference = _assert_edge_parity([trace[:15], trace[15:]])
    emitted = [e for slide in reference[0] for e in slide] + reference[1]
    assert any("STOP_START" in e for e in emitted)
    assert any("STOP_END" in e for e in emitted)


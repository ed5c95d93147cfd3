"""The columnar kernel's hard invariant: byte-identical event streams.

``ColumnarTracker`` reorganizes the Mobility Tracker's hot path around
per-vessel columns, but it is a *kernel*, not an approximation: on any
slide, in any order, it must emit exactly the events the scalar
reference ``MobilityTracker`` (``tests/tracking/oracle.py``) emits on the
slide sorted by ``(timestamp, mmsi)``, ties in arrival order — same
order, same floats, same reprs.  These tests pin that twin contract on a
full simulator fleet (directly and through the whole pipeline) and on the
adversarial per-batch shapes the columnar grouping has to get right: empty
slides, single-position vessels, out-of-order timestamps within a batch,
and a vessel whose whole history is one stop run — and, as a property, on
generated fleets whose every step sits near a detector threshold, each
slide handed over in any order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ais.stream import PositionalTuple, StreamReplayer, TimedArrival
from repro.geo.haversine import destination_point
from repro.geo.units import knots_to_mps
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.simulator import FleetSimulator
from repro.tracking import ColumnarTracker, TrackingParameters, WindowSpec
from tests.parity import replay_transcript
from tests.tracking.helpers import TraceBuilder
from tests.tracking.oracle import MobilityTracker


def _slide_order(position):
    return (position.timestamp, position.mmsi)


class SlideOracle(MobilityTracker):
    """The scalar oracle behind the pipeline's ``track`` and
    ``close_slide``: it closes what it was handed, sorted."""

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self._slide = []

    def track(self, positions):
        self._slide += positions

    def close_slide(self):
        slide, self._slide = self._slide, []
        return self.process_batch(sorted(slide, key=_slide_order)), slide


def _sorted_slides(slides):
    """Each slide as the oracle must see it: sorted, ties as they came."""
    return [sorted(batch, key=_slide_order) for batch in slides]


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
        mmsi: repr(tracker.current_velocity(mmsi)) for mmsi in sorted(mmsis)
    }
    return {
        "slides": per_slide,
        "finalize": final,
        "statistics": repr(tracker.statistics),
        "vessel_order": list(tracker._vessels),
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
    assert len(transcript["vessel_order"]) == 40
    return transcript


def test_full_fleet_parity(sim_slides, scalar_transcript):
    """The columnar kernel reproduces the scalar stream byte for byte."""
    transcript = _transcript(ColumnarTracker(), sim_slides)
    assert transcript == scalar_transcript


def test_pipeline_parity_with_scalar_single_process(world, small_fleet):
    """End to end: the shipped pipeline vs the scalar pipeline.

    The reference is the same pipeline with the scalar tracker swapped in
    before the first slide.  Alerts, critical points and event counts
    must match exactly — the kernel swap has to be invisible.
    """
    config = SystemConfig(window=WindowSpec.of_hours(2, 0.5))
    with SurveillanceSystem(world, small_fleet["specs"], config) as system:
        system.tracker = SlideOracle(config.tracking)
        reference = replay_transcript(system, small_fleet["stream"])
    assert any(s["alerts"] for s in reference["slides"]), "no alerts raised"
    with SurveillanceSystem(world, small_fleet["specs"], config) as system:
        assert replay_transcript(system, small_fleet["stream"]) == reference


# ---------------------------------------------------------------------------
# per-batch edge cases the columnar grouping has to get right
# ---------------------------------------------------------------------------


def _assert_edge_parity(batches):
    """The columnar kernel on a hand-built batch sequence agrees with the
    scalar one on the same batches sorted."""
    transcripts = [
        (
            [[repr(e) for e in tracker.process_batch(b)] for b in handed],
            [repr(e) for e in tracker.finalize()],
            tracker.vessel_count(),
            repr(tracker.statistics),
        )
        for tracker, handed in (
            (MobilityTracker(), _sorted_slides(batches)),
            (ColumnarTracker(), batches),
        )
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


def test_out_of_order_timestamps_within_batch():
    """A report re-sent late inside one batch is put back in timestamp
    order: the columnar kernel tracks each vessel's run of a batch in
    timestamp order, ties as they came, so the re-sent copy lands next
    to its original and is out of sequence (dt <= 0), as in the scalar
    oracle fed the sorted batch."""
    trace = TraceBuilder(mmsi=3).cruise(180, 14, 12).build()
    other = TraceBuilder(mmsi=4, lon=25.0).cruise(0, 9, 12).build()
    batch = sorted(trace + other, key=lambda p: p.timestamp)
    # Regress vessel 3 mid-batch: re-report its 3rd position after its 8th.
    stale = trace[3]._replace(timestamp=trace[3].timestamp)
    index = batch.index(trace[8])
    batch.insert(index + 1, stale)
    reference = _assert_edge_parity([batch])
    assert "positions_out_of_sequence=1," in reference[3]


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


# ---------------------------------------------------------------------------
# generated fleets: every step near a threshold, cut into random slides
# ---------------------------------------------------------------------------

_PARAMS = TrackingParameters()
_ALPHA = _PARAMS.speed_change_percent / 100.0
_TURN = _PARAMS.turn_threshold_degrees
_RADIUS = _PARAMS.stop_radius_meters
_GAP = _PARAMS.gap_period_seconds
_SLOW_KNOTS = _PARAMS.slow_speed_knots

#: A speed change fires when |v' - v| / v' > alpha, i.e. past a factor of
#: 1 / (1 - alpha) up or 1 / (1 + alpha) down: land 3 % either side.
_SPEED_STEP = st.sampled_from(
    [f * edge for edge in (1 / (1 - _ALPHA), 1 / (1 + _ALPHA)) for f in (0.97, 1.03)]
)
_TURN_STEP = st.sampled_from(
    [f * _TURN for f in (0.9, 1.1, 1.8, -0.9, -1.1, -1.8)]
)
#: What opens a leg; the leg then cruises on, drifting.  Speed steps are
#: listed twice: the band screen needs a quiet run around one to be tested.
_FEATURE = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.just("speed"), _SPEED_STEP),
    st.tuples(st.just("speed"), _SPEED_STEP),
    st.tuples(st.just("turn"), _TURN_STEP),
    st.tuples(st.just("gap"), st.sampled_from([-60, 0, 1, 30, 60, 90])),
    st.tuples(st.just("stale"), st.sampled_from([0, 0, 30, 120])),
    st.tuples(st.just("jump"), st.floats(500.0, 8000.0), st.sampled_from([0, 90, 180])),
    st.tuples(
        st.just("halt"),
        st.integers(1, 12),
        st.sampled_from([0.5, 0.9, 1.1, 1.5]),  # jitter, in stop radii
    ),
)
_LEG = st.tuples(
    _FEATURE,
    st.integers(1, 15),  # cruise reports after the feature
    st.sampled_from([10, 30, 60, 90]),  # report interval, s
    st.sampled_from([0.0, 0.0, 0.05, -0.05, 0.3, -0.3]),  # turn per report, in Δθ
    st.sampled_from([1.0, 1.0, 0.98, 1.02]),  # speed factor per report
)
#: Cruise speeds either side of the slow-motion threshold, and well above.
_SPEED_KNOTS = st.sampled_from(
    [0.6 * _SLOW_KNOTS, 0.9 * _SLOW_KNOTS, 1.1 * _SLOW_KNOTS, 1.3 * _SLOW_KNOTS,
     2 * _SLOW_KNOTS, 4 * _SLOW_KNOTS]
)


def _vessel_reports(mmsi, start, speed_knots, heading, legs):
    """One vessel's ``(arrival, position)`` reports, in arrival order.

    Each leg opens with one feature — a speed or heading step, a gap the
    vessel sails through silently, a stale re-report, a displaced report
    (after which it resumes its course), or a jittered halt — then cruises
    on with a steady heading and speed drift.
    """
    lon, lat = 24.0 + mmsi * 0.05, 38.0
    time = start
    speed = knots_to_mps(speed_knots)
    reports = [(time, PositionalTuple(mmsi, lon, lat, time))]

    def sail(dt):
        nonlocal lon, lat, time
        lon, lat = destination_point(lon, lat, heading, speed * dt)
        time += dt
        reports.append((time, PositionalTuple(mmsi, lon, lat, time)))

    for feature, count, interval, drift, speed_drift in legs:
        kind = feature[0]
        if kind == "speed":
            speed *= feature[1]
        elif kind == "turn":
            heading = (heading + feature[1]) % 360.0
        elif kind == "gap":
            sail(_GAP + feature[1])
        elif kind == "stale":
            last = reports[-1][1]
            reports.append((time, last._replace(timestamp=last.timestamp - feature[1])))
        elif kind == "jump":
            _, distance, bearing = feature
            j_lon, j_lat = destination_point(lon, lat, (heading + bearing) % 360.0, distance)
            sail(60)
            reports[-1] = (time, PositionalTuple(mmsi, j_lon, j_lat, time))
        elif kind == "halt":
            _, halts, jitter = feature
            for index in range(halts):
                j_lon, j_lat = destination_point(
                    lon, lat, (index * 73) % 360, jitter * _RADIUS * (index % 3) / 2
                )
                time += 120
                reports.append((time, PositionalTuple(mmsi, j_lon, j_lat, time)))
        for _ in range(count):
            heading = (heading + drift * _TURN) % 360.0
            speed *= speed_drift
            sail(interval)
    return reports


@st.composite
def _fleet_slides(draw):
    """Interleaved generated vessels, cut into random slides; and each
    slide as it is handed over, in any order."""
    arrivals = []
    for mmsi in range(1, draw(st.integers(1, 3)) + 1):
        arrivals += _vessel_reports(
            mmsi,
            draw(st.integers(0, 300)),
            draw(_SPEED_KNOTS),
            draw(st.floats(0.0, 359.0)),
            draw(st.lists(_LEG, min_size=1, max_size=6)),
        )
    arrivals.sort(key=lambda item: item[0])
    stream = [position for _, position in arrivals]
    cuts = draw(st.sets(st.integers(1, len(stream) - 1), max_size=12))
    bounds = [0, *sorted(cuts), len(stream)]
    slides = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    return [draw(st.permutations(slide)) for slide in slides]


@settings(max_examples=200, deadline=None)
@given(_fleet_slides())
def test_generated_fleet_parity(slides):
    """Any fleet, any slide cut, any order within a slide: the columnar
    transcript is the scalar one of the slides sorted.  A stale
    re-report stays stale when a cut puts it in a later slide."""
    assert _transcript(ColumnarTracker(), slides) == _transcript(
        MobilityTracker(), _sorted_slides(slides)
    )

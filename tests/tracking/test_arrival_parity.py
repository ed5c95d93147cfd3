"""Tracking on arrival is invisible: the close equals one sorted batch.

A live node hands :meth:`ColumnarTracker.track` each read of the open
slide as it is scanned, then closes the slide with
:meth:`~ColumnarTracker.close_slide`.  Whatever the reads and their
order, the close must return what the scalar oracle (``tests/tracking/oracle.py``)
returns for the slide sorted by ``(timestamp, mmsi)``: the same events
(by ``repr``), the same statistics, the same vessel-table order, and so
the same ``finalize()``.  A read that falls behind a vessel's earlier
reads must roll that vessel back to its snapshot; a vessel the slide
created must end up where the sorted slide creates it.

The fleets are the generator of ``test_columnar_parity.py`` —
speed steps next to α, turns straddling Δθ, gaps near ΔT, stale and
duplicate re-reports, halts jittered near r — with vessels that first
report partway through a slide.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline import SurveillanceSystem, SystemConfig
from repro.tracking import ColumnarTracker, WindowSpec
from repro.tracking import columnar
from tests.parity import canonical_report
from tests.tracking.oracle import MobilityTracker
from tests.tracking.test_columnar_parity import (
    _ALPHA,
    _LEG,
    _SLOW_KNOTS,
    _SPEED_KNOTS,
    _TURN,
    _slide_order,
    _vessel_reports,
)


def _stamp(position):
    return position.timestamp


def _deal(draw, slide):
    """One slide in arrival order, and the reads of it ``track`` sees.

    Half the orders interleave the vessels but keep each vessel's
    reports in timestamp order; the other half are any permutation.
    Each read is sorted by timestamp, stably, or left as it came."""
    order = draw(st.permutations(slide))
    if draw(st.booleans()):
        queues: dict[int, list] = {}
        for position in sorted(slide, key=_slide_order):
            queues.setdefault(position.mmsi, []).append(position)
        order = [queues[p.mmsi].pop(0) for p in order]
    cuts = draw(st.sets(st.integers(1, max(1, len(order) - 1)), max_size=5))
    bounds = [0, *sorted(c for c in cuts if c < len(order)), len(order)]
    reads = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    reads = [
        sorted(read, key=_stamp) if draw(st.booleans()) else read for read in reads
    ]
    return order, reads


@st.composite
def _dealt_slides(draw):
    """Generated vessels, cut into slides, each dealt into reads; one
    slide may be lost after its reads were tracked."""
    arrivals = []
    for mmsi in range(1, draw(st.integers(1, 3)) + 1):
        arrivals += _vessel_reports(
            mmsi,
            draw(st.integers(0, 3600)),
            draw(_SPEED_KNOTS),
            draw(st.floats(0.0, 359.0)),
            draw(st.lists(_LEG, min_size=1, max_size=6)),
        )
    arrivals.sort(key=lambda item: item[0])
    stream = [position for _, position in arrivals]
    cuts = draw(st.sets(st.integers(1, len(stream) - 1), max_size=8))
    bounds = [0, *sorted(cuts), len(stream)]
    slides = [_deal(draw, stream[a:b]) for a, b in zip(bounds, bounds[1:])]
    lost = draw(st.one_of(st.none(), st.integers(0, len(slides) - 1)))
    return slides, lost


def _observed(tracker, closes):
    """Everything a tracker shows after its slides, compared by repr."""
    return {
        "slides": closes,
        "statistics": repr(tracker.statistics),
        "vessels": list(tracker._vessels),
        "velocities": {
            mmsi: repr(tracker.current_velocity(mmsi)) for mmsi in tracker._vessels
        },
        "finalize": [repr(e) for e in tracker.finalize()],
    }


@settings(max_examples=200, deadline=None)
@given(_dealt_slides())
def test_tracking_on_arrival_equals_one_sorted_batch(case):
    """Every read is tracked, then the slide is closed; ties of
    ``(timestamp, mmsi)`` keep their arrival order in the sorted
    reference, as the tracker keeps them."""
    slides, lost = case
    on_arrival = ColumnarTracker()
    closes = []
    for index, (order, reads) in enumerate(slides):
        for read in reads:
            on_arrival.track(read)
        if index == lost:
            on_arrival.rollback()
        else:
            closes.append([repr(e) for e in on_arrival.close_slide()[0]])

    reference = MobilityTracker()
    expected = [
        [repr(e) for e in reference.process_batch(sorted(order, key=_slide_order))]
        for index, (order, _) in enumerate(slides)
        if index != lost
    ]
    assert _observed(on_arrival, closes) == _observed(reference, expected)


def test_a_close_handed_the_unsorted_slide_equals_the_sorted_close():
    """A slide handed to ``track`` in reads of its positions as they
    arrived, reversed or shuffled closes to what the sorted slide closes
    to, and to what the scalar oracle returns for the sorted slide.  Out
    of order, vessels roll back, slides are watched, and both are
    tracked at the close."""
    legs = [
        (("speed", 1 / (1 - _ALPHA) * 1.03), 6, 30, 0.05, 1.0),
        (("turn", 1.8 * _TURN), 5, 60, 0.0, 0.98),
        (("stale", 30), 4, 30, -0.3, 1.0),
        (("halt", 6, 0.9), 3, 60, 0.0, 1.0),
    ]
    arrivals = []
    for mmsi, start in ((1, 60), (2, 0), (3, 30)):
        arrivals += _vessel_reports(mmsi, start, 4 * _SLOW_KNOTS, 60.0 * mmsi, legs)
    arrivals.sort(key=lambda item: item[0])
    stream = [position for _, position in arrivals]
    cuts = [0, len(stream) // 4, len(stream) // 2, 3 * len(stream) // 4, len(stream)]
    rng = random.Random(2015)
    # Ties of ``(timestamp, mmsi)`` (the stale re-reports) keep their
    # arrival order, so every tracker sees the same arrivals.
    orders = [rng.sample(stream[a:b], b - a) for a, b in zip(cuts, cuts[1:])]

    def handed_sorted(order):
        return sorted(order, key=_slide_order)

    def handed_shuffled(order):
        return rng.sample(order, len(order))

    observed = []
    for hand in (list, lambda order: order[::-1], handed_shuffled, handed_sorted):
        with obs.activate(obs.MetricsRegistry()) as registry:
            tracker = ColumnarTracker()
            closes = []
            for order in orders:
                handed = hand(order)
                for start in range(0, len(handed), 7):
                    tracker.track(handed[start:start + 7])
                closes.append([repr(e) for e in tracker.close_slide()[0]])
        if hand is not handed_sorted:
            assert registry.counter("tracking.arrival_rollbacks").value > 0
            assert registry.counter("tracking.arrival_skipped_slides").value > 0
        observed.append(_observed(tracker, closes))

    reference = MobilityTracker()
    expected = [
        [repr(e) for e in reference.process_batch(handed_sorted(order))]
        for order in orders
    ]
    assert all(seen == _observed(reference, expected) for seen in observed)


def test_an_inverted_read_rolls_its_vessel_back():
    """A position behind one its vessel already tracked is counted and
    the vessel is tracked at the close; the events do not change."""
    cruise = [(("none",), 8, 60, 0.0, 1.0)]
    reports = [p for _, p in _vessel_reports(1, 0, 12.0, 90.0, cruise)]
    later, earlier = reports[5:], reports[:5]
    with obs.activate(obs.MetricsRegistry()) as registry:
        tracker = ColumnarTracker()
        tracker.track(later)
        tracker.track(earlier)
        events, _ = tracker.close_slide()
    assert registry.counter("tracking.arrival_rollbacks").value == 1
    assert [repr(e) for e in events] == [
        repr(e) for e in MobilityTracker().process_batch(reports)
    ]


def test_a_disordered_slide_leaves_the_next_one_to_the_close(monkeypatch):
    """After a slide that rolled back more than the allowed share of its
    vessels, ``track`` only watches the next slide's order (no
    snapshot); a watched slide in order brings tracking back.  The
    events equal the scalar oracle's throughout."""
    cruise = [(("none",), 30, 60, 0.0, 1.0)]
    reports = [p for _, p in _vessel_reports(1, 0, 12.0, 90.0, cruise)]
    slides = [reports[:10], reports[10:20], reports[20:]]
    snapshots = []
    take = columnar._ColumnarVesselState.snapshot
    monkeypatch.setattr(
        columnar._ColumnarVesselState,
        "snapshot",
        lambda state: snapshots.append(1) or take(state),
    )
    with obs.activate(obs.MetricsRegistry()) as registry:
        tracker = ColumnarTracker()
        tracker.process_batch(slides[0][:2])
        tracker.track(slides[0][7:])
        tracker.track(slides[0][2:7])
        closes = [tracker.close_slide()[0]]
        assert len(snapshots) == 1
        closes.append(tracker.process_batch(slides[1]))
        assert len(snapshots) == 1
        closes.append(tracker.process_batch(slides[2]))
        assert len(snapshots) == 2
    assert registry.counter("tracking.arrival_rollbacks").value == 1
    assert registry.counter("tracking.arrival_skipped_slides").value == 1
    reference = MobilityTracker()
    reference.process_batch(slides[0][:2])
    expected = [reference.process_batch(slides[0][2:])] + [
        reference.process_batch(slide) for slide in slides[1:]
    ]
    assert [[repr(e) for e in close] for close in closes] == [
        [repr(e) for e in close] for close in expected
    ]


def test_the_pipeline_cannot_tell_tracking_on_arrival_apart(world, small_fleet):
    """``track`` over shuffled reads, then the close and the archive:
    every slide report equals the plain replay's (``process_slide`` of the
    sorted slide), and the arrival seconds land in the slide's tracking
    timing."""
    config = SystemConfig(window=WindowSpec.of_hours(2, 0.5))
    arrivals = [TimedArrival(p.timestamp, p) for p in small_fleet["stream"]]
    slides = list(StreamReplayer(arrivals, 1800).batches())
    rng = random.Random(2015)

    def replay(on_arrival: bool):
        reports = []
        with SurveillanceSystem(world, small_fleet["specs"], config) as system:
            for query_time, batch in slides:
                if on_arrival:
                    order = list(batch)
                    if rng.random() < 0.5:
                        rng.shuffle(order)
                    size = rng.randint(1, 40)
                    for start in range(0, len(order), size):
                        system.track(order[start:start + size])
                    arrival_seconds = system._arrival_seconds
                    report = system.close_slide(query_time)
                    system.archive()
                else:
                    arrival_seconds = 0.0
                    report = system.process_slide(batch, query_time)
                assert report.timings["tracking"] > arrival_seconds
                reports.append(canonical_report(report))
            reports.append(canonical_report(system.finalize()))
        return reports

    assert replay(on_arrival=True) == replay(on_arrival=False)


def test_a_slide_lost_to_an_error_keeps_its_arrival_seconds(
    world, small_fleet, monkeypatch
):
    """A slide whose processing raises does not carry the seconds
    ``track`` spent on it into the next slide's tracking timing."""
    arrivals = [TimedArrival(p.timestamp, p) for p in small_fleet["stream"]]
    (first_qt, first), (second_qt, second) = list(
        StreamReplayer(arrivals, 1800).batches()
    )[:2]

    def fail(*args, **kwargs):
        raise RuntimeError("compressor fault")

    with SurveillanceSystem(world, small_fleet["specs"]) as system:
        system.track(first)
        system._arrival_seconds = 1000.0  # a sentinel no slide can reach
        with monkeypatch.context() as patch:
            patch.setattr(system.compressor, "slide", fail)
            with pytest.raises(RuntimeError):
                system.close_slide(first_qt)
        report = system.process_slide(second, second_qt)
    assert report.timings["tracking"] < 1000.0

"""Slide-metrics recording must not depend on dict insertion order.

The per-slide phase timings arrive as a dict whose insertion order
reflects execution interleaving.  Anything derived from iterating it
(here: the order of histogram observations) must go through ``sorted()``
so observability output is byte-stable.  There is one ``_record_slide_metrics`` — inline and
sharded systems share it — so it is exercised on the real inline system.
"""

import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.pipeline import SurveillanceSystem


class RecordingRegistry(MetricsRegistry):
    """A registry that remembers the order of ``observe`` calls."""

    def __init__(self):
        super().__init__()
        self.observe_order = []

    def observe(self, name, value):
        self.observe_order.append(name)
        super().observe(name, value)


@pytest.fixture()
def system(world, small_fleet):
    with SurveillanceSystem(world, small_fleet["specs"]) as system:
        yield system


class TestPhaseObservationOrder:
    def test_phases_recorded_in_sorted_order(self, system):
        # Adversarial insertion order: reverse-alphabetical.
        timings = {"tracking": 0.3, "batch": 0.2, "alerting": 0.1}
        with obs.activate(RecordingRegistry()) as registry:
            system._record_slide_metrics(
                timings,
                raw_positions=10,
                movement_events=4,
                fresh=2,
                expired=1,
                recognized=1,
            )
        phases = [
            name for name in registry.observe_order
            if name.startswith("pipeline.phase.")
        ]
        assert phases == sorted(phases)
        assert phases == [
            "pipeline.phase.alerting",
            "pipeline.phase.batch",
            "pipeline.phase.tracking",
        ]

    def test_order_is_stable_across_insertion_orders(self, system):
        orders = []
        for keys in (("a", "b", "c"), ("c", "a", "b"), ("b", "c", "a")):
            timings = {key: 0.1 for key in keys}
            with obs.activate(RecordingRegistry()) as registry:
                system._record_slide_metrics(
                    timings,
                    raw_positions=0,
                    movement_events=0,
                    fresh=0,
                    expired=0,
                    recognized=0,
                )
            orders.append([
                name for name in registry.observe_order
                if name.startswith("pipeline.phase.")
            ])
        assert orders[0] == orders[1] == orders[2]

"""Maritime complex event recognition (Section 4).

This package instantiates the RTEC engine with the paper's event
description: the critical movement events (ME) of the trajectory detection
component — ``gap``, ``slowMotion``, ``stopped``, ``speedChange``, ``turn`` —
are correlated with static geographical and vessel data to recognize

* ``suspicious(Area)`` — several vessels stopped close to an area
  (Scenario 1, rule-set (3));
* ``illegalFishing(Area)`` — a fishing vessel stopped or trawling slowly in
  a forbidden-fishing area (Scenario 2, rule-set (4));
* ``illegalShipping(Area)`` — a communication gap close to a protected area
  (Scenario 3, rule (5));
* ``dangerousShipping(Area)`` — slow motion through waters too shallow for
  the vessel (Scenario 4, rule (6)).

Vessel-area proximity is *spatial reasoning* on demand: RTEC computes it
with Haversine geometry inside rule bodies.  The paper's alternative for
Figure 11(b), precomputed ``close_to`` facts joined by rewritten rules, is
not shipped: the incremental engine evaluates each geometry join once per
new trigger, so the facts never win (EXPERIMENTS.md).  It survives as a
test-side reference under ``tests/maritime/``.
"""

from repro.maritime.adapter import MovementEventAdapter
from repro.maritime.config import MaritimeConfig
from repro.maritime.definitions import build_maritime_rules
from repro.maritime.partition import PartitionedRecognizer, partition_world
from repro.maritime.predicates import (
    FishingStoppedIn,
    VesselsStoppedIn,
    make_close_predicate,
    make_shallow_predicate,
)
from repro.maritime.recognizer import Alert, MaritimeRecognizer

__all__ = [
    "Alert",
    "FishingStoppedIn",
    "MaritimeConfig",
    "MaritimeRecognizer",
    "MovementEventAdapter",
    "PartitionedRecognizer",
    "VesselsStoppedIn",
    "build_maritime_rules",
    "make_close_predicate",
    "make_shallow_predicate",
    "partition_world",
]

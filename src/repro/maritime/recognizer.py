"""The Complex Event Recognition module, assembled.

:class:`MaritimeRecognizer` wires the RTEC engine, the maritime event
description and the ME adapter into the component of Figure 1: feed it the
movement events of each window slide, call :meth:`step`, and receive the
recognized complex events as :class:`Alert` records for "real-time
decision-making" by the marine authorities.
"""

from dataclasses import dataclass

from repro import obs
from repro.maritime.adapter import MovementEventAdapter
from repro.maritime.config import MaritimeConfig
from repro.maritime.definitions import (
    OUTPUT_EVENTS,
    OUTPUT_FLUENTS,
    build_maritime_rules,
)
from repro.maritime.pairwise.monitor import PairFact
from repro.maritime.pairwise.rules import (
    PAIRWISE_OUTPUT_EVENTS,
    PAIRWISE_OUTPUT_FLUENTS,
    PAIRWISE_PAIR_CES,
    PAIRWISE_VESSEL_CES,
    build_pairwise_rules,
)
from repro.rtec.engine import RTEC, RecognitionResult
from repro.rtec.intervals import OPEN
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import Area, WorldModel
from repro.tracking.types import MovementEvent


@dataclass(frozen=True)
class Alert:
    """One recognized complex event, formatted for the end user.

    Durative CEs (``suspicious``, ``illegalFishing``) produce one alert per
    maximal interval; instantaneous CEs (``illegalShipping``,
    ``dangerousShipping``) one per occurrence.  ``until`` is ``None`` for
    instantaneous CEs and for intervals still open at the query time.

    Pairwise CEs (``encounter``, ``rendezvous``, ``cpaRisk``) involve two
    vessels instead of a vessel and an area: ``area`` is empty and
    ``mmsi``/``mmsi2`` carry the pair (``mmsi < mmsi2``); ``darkShip``
    names a single vessel.
    """

    kind: str
    area: str
    since: int
    until: int | None = None
    mmsi: int | None = None
    mmsi2: int | None = None

    @property
    def is_ongoing(self) -> bool:
        """Whether the situation was still in progress at the query time."""
        return self.until is None


def alert_sort_key(alert: Alert) -> tuple:
    """The canonical report order of alerts.

    The vessel tiebreakers are no-ops for the historical vessel-vs-area
    alerts (event occurrences already arrive sorted by ``(time, args)``,
    fluent alerts carry no MMSI) and give pairwise alerts — which all
    share ``area == ""`` — a total order across pairs.
    """
    return (
        alert.since,
        alert.kind,
        alert.area,
        -1 if alert.mmsi is None else alert.mmsi,
        -1 if alert.mmsi2 is None else alert.mmsi2,
    )


class MaritimeRecognizer:
    """End-to-end CE recognition over movement-event slides."""

    def __init__(
        self,
        world: WorldModel,
        specs: dict[int, VesselSpec],
        window_seconds: int,
        config: MaritimeConfig | None = None,
        watch_areas: list[Area] | None = None,
        pairwise: bool = False,
        ce_scope: str = "full",
    ):
        self.world = world
        self.config = config or MaritimeConfig()
        self.pairwise = pairwise
        self.ce_scope = ce_scope
        if ce_scope != "full" and pairwise:
            # Pairwise CEs span two vessels: they are not MMSI-decomposable,
            # so they do not compose with the vessel scope (docs/GATEWAY.md).
            raise ValueError("ce_scope='vessel' excludes pairwise recognition")
        self.engine = RTEC(window_seconds)
        rules, computed = build_maritime_rules(
            self.world, specs, self.config, watch_areas, scope=ce_scope
        )
        if ce_scope == "full":
            output_fluents = list(OUTPUT_FLUENTS)
        else:
            # The aggregate fluents are gated out of the rule set, so the
            # vessel scope reports no fluent at all: the empty declaration
            # keeps internal fluents (``stopped``, ...) out of the alerts.
            output_fluents = []
        output_events = list(OUTPUT_EVENTS)
        if pairwise:
            rules = list(rules) + build_pairwise_rules()
            output_fluents += PAIRWISE_OUTPUT_FLUENTS
            output_events += PAIRWISE_OUTPUT_EVENTS
        self.engine.declare_rules(rules)
        for fluent in computed:
            self.engine.declare_computed(fluent)
        self.engine.declare_outputs(output_fluents, output_events)
        self.adapter = MovementEventAdapter(
            self.engine.working_memory, self.engine.read_events()
        )
        self.last_step_seconds = 0.0

    def ingest(
        self, events: list[MovementEvent], arrival_time: int | None = None
    ) -> int:
        """Feed one slide's movement events; returns the critical ME count."""
        return self.adapter.ingest_events(events, arrival_time)

    def ingest_facts(
        self, facts: list[PairFact], arrival_time: int | None = None
    ) -> int:
        """Assert amalgamated pair facts into working memory.

        The facts come pre-timestamped from the
        :class:`~repro.maritime.pairwise.monitor.PairwiseMonitor`; the
        recognizer only records those a rule reads as input events.
        """
        memory = self.engine.working_memory
        read = self.engine.read_events()
        stored = 0
        for fact in facts:
            if fact.functor in read:
                memory.assert_event(
                    fact.functor, fact.args, fact.timestamp, arrival=arrival_time
                )
                stored += 1
        if stored < len(facts):
            obs.count("recognition.unread_events", len(facts) - stored)
        obs.count("recognition.ingested_pair_facts", stored)
        return len(facts)

    def step(self, query_time: int) -> RecognitionResult:
        """Run recognition at a query time, recording wall-clock cost."""
        with obs.timed_span("recognition.step") as span:
            result = self.engine.step(query_time)
        self.last_step_seconds = span.seconds
        return result

    def alerts(self, result: RecognitionResult | None = None) -> list[Alert]:
        """Flatten a recognition result into alert records."""
        result = result or self.engine.last_result
        if result is None:
            return []
        alerts: list[Alert] = []
        for functor, instances in result.fluents.items():
            pair_ce = functor in PAIRWISE_PAIR_CES
            for args, value_intervals in instances.items():
                for ts, tf in value_intervals.get(True, []):
                    until = None if tf == OPEN else int(tf)
                    if pair_ce:
                        alerts.append(
                            Alert(
                                kind=functor,
                                area="",
                                since=ts,
                                until=until,
                                mmsi=args[0],
                                mmsi2=args[1],
                            )
                        )
                    else:
                        alerts.append(
                            Alert(
                                kind=functor, area=args[0], since=ts,
                                until=until,
                            )
                        )
        for functor, occurrences in result.events.items():
            pair_ce = functor in PAIRWISE_PAIR_CES
            vessel_ce = functor in PAIRWISE_VESSEL_CES
            for args, timepoint in occurrences:
                if pair_ce:
                    alert = Alert(
                        kind=functor, area="", since=timepoint,
                        mmsi=args[0], mmsi2=args[1],
                    )
                elif vessel_ce:
                    alert = Alert(
                        kind=functor, area="", since=timepoint, mmsi=args[0],
                    )
                else:
                    alert = Alert(
                        kind=functor,
                        area=args[0],
                        since=timepoint,
                        mmsi=args[1] if len(args) > 1 else None,
                    )
                alerts.append(alert)
        alerts.sort(key=alert_sort_key)
        return alerts

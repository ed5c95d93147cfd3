"""The spatial-facts operation mode of Figure 11(b), as a test-side reference.

"The ME stream is augmented by timestamped facts indicating the spatial
relations between vessels and (protected, forbidden fishing, shallow) areas.
Each ME expressing the movement of a vessel is accompanied by facts stating
whether the vessel is 'close' to some area of interest — the timestamp of
these facts is the same as the timestamp of the ME.  For these experiments,
the CE definitions were updated in order to make use of spatial facts (as
opposed to RTEC computing on-demand spatial relations in the CE recognition
process)." — Section 5.2.

Facts are asserted as events ``close_to_<kind>(Vessel, Area)``; the variant
rules join on them at the trigger's (already bound) timestamp, so rule
evaluation performs no geometry at all.

The shipped recognizer computes proximity on demand only: on the
incremental engine each geometry join runs once per new trigger, and the
facts were measured slower (EXPERIMENTS.md, Figure 11(b)).  This module
keeps the variant for the ``spatial-facts`` rule set of
``tests/rtec/test_engine_oracle.py``, the parametrised
``tests/maritime/test_definitions.py``, the pipeline and scenario tests
that compare both modes, and ``benchmarks/bench_fig11b_spatial_facts.py``,
through :class:`SpatialFactsRecognizer`, a drop-in for
:class:`~repro.maritime.MaritimeRecognizer` (:func:`use_spatial_facts`
swaps it into an inline pipeline).
"""

from repro import obs
from repro.maritime.adapter import EVENT_FUNCTORS, MovementEventAdapter
from repro.maritime.config import MaritimeConfig
from repro.maritime.definitions import OUTPUT_EVENTS, OUTPUT_FLUENTS
from repro.maritime.predicates import (
    FishingStoppedIn,
    VesselsStoppedIn,
    make_close_predicate,
    make_fishing_predicate,
    make_shallow_predicate,
)
from repro.maritime.recognizer import MaritimeRecognizer
from repro.rtec.engine import RTEC, ComputedFluent, EngineView
from repro.rtec.rules import (
    End,
    EventPattern,
    Guard,
    HappensAt,
    HoldsAt,
    Rule,
    Start,
    StaticJoin,
    Var,
    happens_head,
    initiated,
    terminated,
)
from repro.rtec.working_memory import WorkingMemory
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import Area, AreaKind, WorldModel
from repro.spatial.grid import StaticBoxIndex
from repro.tracking.types import MovementEvent

#: Fact functors per area category.
FACT_WATCH = "close_to_watch"
FACT_PROTECTED = "close_to_protected"
FACT_FORBIDDEN = "close_to_forbidden"
FACT_SHALLOW = "close_to_shallow"


def _category_indexes(
    world: WorldModel,
    threshold_meters: float,
    watch_areas: list[Area] | None,
) -> list[tuple[str, list[Area], StaticBoxIndex]]:
    """Per-category area lists with their point-in-area prefilters.

    The :class:`~repro.spatial.grid.StaticBoxIndex` over the threshold-
    expanded boxes is exactly conservative for ``is_close`` (which opens
    with the same expanded-box test) and preserves area-list order, so
    the produced facts are identical to a linear scan's.
    """
    watch = watch_areas if watch_areas is not None else world.areas
    categories = [
        (FACT_WATCH, list(watch)),
        (FACT_PROTECTED, world.areas_of_kind(AreaKind.PROTECTED)),
        (FACT_FORBIDDEN, world.areas_of_kind(AreaKind.FORBIDDEN_FISHING)),
        (FACT_SHALLOW, world.areas_of_kind(AreaKind.SHALLOW)),
    ]
    return [
        (
            functor,
            areas,
            StaticBoxIndex(
                (position, area.polygon.bbox.expanded(threshold_meters))
                for position, area in enumerate(areas)
            ),
        )
        for functor, areas in categories
    ]


def spatial_facts_for(
    event: MovementEvent,
    world: WorldModel,
    threshold_meters: float,
    watch_areas: list[Area] | None = None,
    indexes: list[tuple[str, list[Area], StaticBoxIndex]] | None = None,
) -> list[tuple[str, tuple, int]]:
    """The ``close_to`` facts accompanying one movement event.

    Returns ``(functor, (mmsi, area_name), timestamp)`` triples, one per
    (category, nearby-area) pair.  Pass ``indexes`` (from
    :func:`_category_indexes`) to amortize index construction over a
    batch of events.
    """
    if indexes is None:
        indexes = _category_indexes(world, threshold_meters, watch_areas)
    facts = []
    for functor, areas, index in indexes:
        for position in index.candidates(event.lon, event.lat):
            area = areas[position]
            if area.polygon.is_close(event.lon, event.lat, threshold_meters):
                facts.append((functor, (event.mmsi, area.name), event.timestamp))
    return facts


def assert_spatial_facts(
    memory: WorkingMemory,
    events: list[MovementEvent],
    world: WorldModel,
    threshold_meters: float,
    arrival_time: int | None = None,
    watch_areas: list[Area] | None = None,
) -> int:
    """Assert the facts for a slide's MEs; returns the fact count."""
    indexes = _category_indexes(world, threshold_meters, watch_areas)
    count = 0
    for event in events:
        if event.event_type not in EVENT_FUNCTORS:
            continue
        for functor, args, timestamp in spatial_facts_for(
            event, world, threshold_meters, watch_areas, indexes=indexes
        ):
            memory.assert_event(functor, args, timestamp, arrival=arrival_time)
            count += 1
    return count


class _FactCounter:
    """Mixin: place a stop by the ``close_to`` facts at its start."""

    fact_functor: str

    def _areas_for_stop(self, view: EngineView, vessel: int, ts: int) -> list[str]:
        if ts <= view.window_start:
            # The stop began before the window and its fact is forgotten:
            # place it geometrically, the only geometry this mode computes.
            return super()._areas_for_stop(view, vessel, ts)
        if ts > view.query_time:
            return []
        return [
            args[1]
            for args in view.memory.arrived_at(self.fact_functor, ts, view.query_time)
            if args[0] == vessel
        ]


class FactVesselsStoppedIn(_FactCounter, VesselsStoppedIn):
    """``vesselsStoppedIn(Area)=N`` over ``close_to_watch`` facts."""

    fact_functor = FACT_WATCH


class FactFishingStoppedIn(_FactCounter, FishingStoppedIn):
    """``fishingStoppedIn(Area)=N`` over ``close_to_forbidden`` facts."""

    fact_functor = FACT_FORBIDDEN


def build_spatial_fact_rules(
    world: WorldModel,
    specs: dict[int, VesselSpec],
    config: MaritimeConfig | None = None,
    watch_areas: list[Area] | None = None,
) -> tuple[list[Rule], list[ComputedFluent]]:
    """The CE definitions rewritten over precomputed spatial facts.

    Mirrors :func:`repro.maritime.definitions.build_maritime_rules` rule for
    rule, with each ``coord`` lookup + ``close`` computation replaced by a
    bound-time join on the corresponding fact.
    """
    config = config or MaritimeConfig()
    watch = watch_areas if watch_areas is not None else list(world.areas)
    fishing = make_fishing_predicate(specs)
    shallow = make_shallow_predicate(world.areas_of_kind(AreaKind.SHALLOW), specs)

    vessel = Var("Vessel")
    area = Var("Area")
    count = Var("N")
    is_fishing = StaticJoin(fishing, inputs=("Vessel",), outputs=(), name="fishing")

    rules: list[Rule] = [
        initiated(
            "stopped", (vessel,), True,
            [HappensAt(EventPattern("stop_start", (vessel,)))],
        ),
        terminated(
            "stopped", (vessel,), True,
            [HappensAt(EventPattern("stop_end", (vessel,)))],
        ),
        # Scenario 1 — suspicious(Area)
        initiated(
            "suspicious", (area,), True,
            [
                HappensAt(Start("stopped", (vessel,), True)),
                HappensAt(EventPattern(FACT_WATCH, (vessel, area))),
                HoldsAt("vesselsStoppedIn", (area,), count),
                Guard(lambda n, k=config.suspicious_other_vessels: n >= k, ("N",)),
            ],
        ),
        terminated(
            "suspicious", (area,), True,
            [
                HappensAt(End("stopped", (vessel,), True)),
                HappensAt(EventPattern(FACT_WATCH, (vessel, area))),
                HoldsAt("vesselsStoppedIn", (area,), count),
                Guard(
                    lambda n, k=config.suspicious_other_vessels: n - 1 <= k, ("N",)
                ),
            ],
        ),
        # Scenario 2 — illegalFishing(Area)
        initiated(
            "illegalFishing", (area,), True,
            [
                HappensAt(Start("stopped", (vessel,), True)),
                is_fishing,
                HappensAt(EventPattern(FACT_FORBIDDEN, (vessel, area))),
            ],
        ),
        initiated(
            "illegalFishing", (area,), True,
            [
                HappensAt(EventPattern("slowMotion", (vessel,))),
                is_fishing,
                HappensAt(EventPattern(FACT_FORBIDDEN, (vessel, area))),
            ],
        ),
        terminated(
            "illegalFishing", (area,), True,
            [
                HappensAt(End("stopped", (vessel,), True)),
                is_fishing,
                HappensAt(EventPattern(FACT_FORBIDDEN, (vessel, area))),
                HoldsAt("fishingStoppedIn", (area,), count),
                Guard(lambda n: n - 1 <= 0, ("N",)),
            ],
        ),
        terminated(
            "illegalFishing", (area,), True,
            [
                HappensAt(EventPattern("speedChange", (vessel,))),
                is_fishing,
                HappensAt(EventPattern(FACT_FORBIDDEN, (vessel, area))),
                HoldsAt("fishingStoppedIn", (area,), count),
                Guard(lambda n: n == 0, ("N",)),
            ],
        ),
        # Scenario 3 — illegalShipping
        happens_head(
            "illegalShipping", (area, vessel),
            [
                HappensAt(EventPattern("gap", (vessel,))),
                HappensAt(EventPattern(FACT_PROTECTED, (vessel, area))),
            ],
        ),
        # Scenario 4 — dangerousShipping
        happens_head(
            "dangerousShipping", (area, vessel),
            [
                HappensAt(EventPattern("slowMotion", (vessel,))),
                HappensAt(EventPattern(FACT_SHALLOW, (vessel, area))),
                StaticJoin(
                    shallow, inputs=("Area", "Vessel"), outputs=(), name="shallow"
                ),
            ],
        ),
    ]

    computed: list[ComputedFluent] = [
        FactVesselsStoppedIn(
            make_close_predicate(watch, config.close_threshold_meters),
            area_names=[a.name for a in watch],
        ),
        FactFishingStoppedIn(
            make_close_predicate(
                world.areas_of_kind(AreaKind.FORBIDDEN_FISHING),
                config.close_threshold_meters,
            ),
            fishing=lambda mmsi: fishing(mmsi),
            area_names=[
                a.name for a in world.areas_of_kind(AreaKind.FORBIDDEN_FISHING)
            ],
        ),
    ]
    return rules, computed


class SpatialFactsRecognizer(MaritimeRecognizer):
    """:class:`~repro.maritime.MaritimeRecognizer` over the ME + facts stream.

    The engine runs :func:`build_spatial_fact_rules` instead of the
    on-demand definitions, and :meth:`ingest` asserts each ME's
    ``close_to`` facts beside it (the count it returns includes them).
    """

    def __init__(
        self,
        world: WorldModel,
        specs: dict[int, VesselSpec],
        window_seconds: int,
        config: MaritimeConfig | None = None,
        watch_areas: list[Area] | None = None,
    ):
        super().__init__(world, specs, window_seconds, config, watch_areas)
        rules, computed = build_spatial_fact_rules(
            world, specs, self.config, watch_areas
        )
        self.engine = RTEC(window_seconds)
        self.engine.declare_rules(rules)
        for fluent in computed:
            self.engine.declare_computed(fluent)
        self.engine.declare_outputs(list(OUTPUT_FLUENTS), list(OUTPUT_EVENTS))
        self.adapter = MovementEventAdapter(self.engine.working_memory)

    def ingest(
        self, events: list[MovementEvent], arrival_time: int | None = None
    ) -> int:
        count = self.adapter.ingest_events(events, arrival_time)
        facts = assert_spatial_facts(
            self.engine.working_memory,
            events,
            self.world,
            self.config.close_threshold_meters,
            arrival_time,
        )
        # The adapter counted its MEs.
        obs.count("recognition.ingested_events", facts)
        return count + facts


def use_spatial_facts(system, specs: dict[int, VesselSpec]) -> None:
    """Swap an inline ``SurveillanceSystem``'s recognizer for the facts mode."""
    system.recognizer = SpatialFactsRecognizer(
        system.world,
        specs,
        system.config.effective_recognition_window,
        system.config.maritime,
    )

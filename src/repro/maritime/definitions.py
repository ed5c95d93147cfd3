"""The maritime event description: CE definitions of Section 4.1.

The rules below transcribe the paper's rule-sets (3)-(6) into the engine's
rule language.  Deviations, each documented inline:

* CE heads carry the vessel as an extra argument (``illegalShipping(Area,
  Vessel)`` instead of ``illegalShipping(Area)``) so that alerts are
  actionable; recognition counts are unaffected for the benchmarks.
* The paper omits the ``illegalFishing`` termination rules "to save space";
  we formalize the two conditions it names — no fishing vessels remain in
  the forbidden area, or their movement no longer allows fishing — using
  the ``fishingStoppedIn`` counter fluent.
* Counting fencepost: a fluent initiated at T holds from T+1, so at the
  instant a vessel's ``start(stopped)`` triggers rule-set (3) the counter
  does not yet include that vessel; the guard therefore asks for
  ``suspicious_other_vessels`` (default 3) *other* vessels — at least four
  stopped vessels in total, as the domain experts specified.
"""

from repro.maritime.config import MaritimeConfig
from repro.maritime.predicates import (
    FishingStoppedIn,
    VesselsStoppedIn,
    make_close_predicate,
    make_fishing_predicate,
    make_shallow_predicate,
)
from repro.rtec.engine import ComputedFluent
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
from repro.maritime.pairwise.rules import (
    PAIRWISE_OUTPUT_EVENTS,
    PAIRWISE_OUTPUT_FLUENTS,
)
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import Area, AreaKind, WorldModel

#: CE fluents and events reported to the authorities.
OUTPUT_FLUENTS = ["suspicious", "illegalFishing"]
OUTPUT_EVENTS = ["illegalShipping", "dangerousShipping"]

#: The full CE vocabulary, vessel-vs-area plus the pairwise layer
#: (:mod:`repro.maritime.pairwise`); the HTTP alert filter validates
#: ``?type=`` names against this.
ALL_CE_NAMES = tuple(
    OUTPUT_FLUENTS
    + OUTPUT_EVENTS
    + PAIRWISE_OUTPUT_FLUENTS
    + PAIRWISE_OUTPUT_EVENTS
)


def build_maritime_rules(
    world: WorldModel,
    specs: dict[int, VesselSpec],
    config: MaritimeConfig | None = None,
    watch_areas: list[Area] | None = None,
) -> tuple[list[Rule], list[ComputedFluent]]:
    """Assemble the full event description for a world and fleet.

    ``watch_areas`` restricts the ``suspicious`` CE (officials "restrict
    computation ... to these areas"); it defaults to every area of the
    world.  Returns the rules plus the computed counter fluents to
    register; which of them run is the engine's choice (rule (f)), made
    from the declared outputs.
    """
    config = config or MaritimeConfig()
    watch = watch_areas if watch_areas is not None else list(world.areas)
    threshold = config.close_threshold_meters

    close_watch = make_close_predicate(watch, threshold)
    close_protected = make_close_predicate(
        world.areas_of_kind(AreaKind.PROTECTED), threshold
    )
    close_forbidden = make_close_predicate(
        world.areas_of_kind(AreaKind.FORBIDDEN_FISHING), threshold
    )
    close_shallow = make_close_predicate(
        world.areas_of_kind(AreaKind.SHALLOW), threshold
    )
    fishing = make_fishing_predicate(specs)
    shallow = make_shallow_predicate(world.areas_of_kind(AreaKind.SHALLOW), specs)

    vessel = Var("Vessel")
    area = Var("Area")
    lon = Var("Lon")
    lat = Var("Lat")
    count = Var("N")

    coord_lookup = HoldsAt("coord", (vessel,), (lon, lat))
    is_fishing = StaticJoin(fishing, inputs=("Vessel",), outputs=(), name="fishing")

    rules: list[Rule] = []

    # ----- input durative ME: stopped(Vessel) --------------------------
    # The tracker brackets long-term stops with stop_start/stop_end MEs.
    rules.append(
        initiated(
            "stopped", (vessel,), True,
            [HappensAt(EventPattern("stop_start", (vessel,)))],
        )
    )
    rules.append(
        terminated(
            "stopped", (vessel,), True,
            [HappensAt(EventPattern("stop_end", (vessel,)))],
        )
    )

    # ----- Scenario 1: suspicious(Area) — rule-set (3) ------------------
    rules.append(
        initiated(
            "suspicious", (area,), True,
            [
                HappensAt(Start("stopped", (vessel,), True)),
                coord_lookup,
                StaticJoin(close_watch, inputs=("Lon", "Lat"), outputs=("Area",)),
                HoldsAt("vesselsStoppedIn", (area,), count),
                Guard(
                    lambda n, k=config.suspicious_other_vessels: n >= k, ("N",)
                ),
            ],
        )
    )
    rules.append(
        terminated(
            "suspicious", (area,), True,
            [
                HappensAt(End("stopped", (vessel,), True)),
                coord_lookup,
                StaticJoin(close_watch, inputs=("Lon", "Lat"), outputs=("Area",)),
                HoldsAt("vesselsStoppedIn", (area,), count),
                # The departing vessel is still counted at its
                # end(stopped) instant, so N - 1 vessels remain.
                Guard(
                    lambda n, k=config.suspicious_other_vessels: n - 1 <= k,
                    ("N",),
                ),
            ],
        )
    )

    # ----- Scenario 2: illegalFishing(Area) — rule-set (4) --------------
    rules.append(
        initiated(
            "illegalFishing", (area,), True,
            [
                HappensAt(Start("stopped", (vessel,), True)),
                is_fishing,
                coord_lookup,
                StaticJoin(close_forbidden, inputs=("Lon", "Lat"), outputs=("Area",)),
            ],
        )
    )
    rules.append(
        initiated(
            "illegalFishing", (area,), True,
            [
                HappensAt(EventPattern("slowMotion", (vessel,))),
                is_fishing,
                coord_lookup,
                StaticJoin(close_forbidden, inputs=("Lon", "Lat"), outputs=("Area",)),
            ],
        )
    )
    # Termination (the paper sketches the conditions): no fishing
    # vessels remain stopped in the area...
    rules.append(
        terminated(
            "illegalFishing", (area,), True,
            [
                HappensAt(End("stopped", (vessel,), True)),
                is_fishing,
                coord_lookup,
                StaticJoin(close_forbidden, inputs=("Lon", "Lat"), outputs=("Area",)),
                HoldsAt("fishingStoppedIn", (area,), count),
                Guard(lambda n: n - 1 <= 0, ("N",)),
            ],
        )
    )
    # ... or a fishing vessel speeds up (movement no longer allows
    # fishing) while no fishing vessel is stopped there.
    rules.append(
        terminated(
            "illegalFishing", (area,), True,
            [
                HappensAt(EventPattern("speedChange", (vessel,))),
                is_fishing,
                coord_lookup,
                StaticJoin(close_forbidden, inputs=("Lon", "Lat"), outputs=("Area",)),
                HoldsAt("fishingStoppedIn", (area,), count),
                Guard(lambda n: n == 0, ("N",)),
            ],
        )
    )

    # ----- Scenario 3: illegalShipping — rule (5) ------------------------
    rules.append(
        happens_head(
            "illegalShipping", (area, vessel),
            [
                HappensAt(EventPattern("gap", (vessel,))),
                coord_lookup,
                StaticJoin(close_protected, inputs=("Lon", "Lat"), outputs=("Area",)),
            ],
        )
    )

    # ----- Scenario 4: dangerousShipping — rule (6) ----------------------
    rules.append(
        happens_head(
            "dangerousShipping", (area, vessel),
            [
                HappensAt(EventPattern("slowMotion", (vessel,))),
                coord_lookup,
                StaticJoin(close_shallow, inputs=("Lon", "Lat"), outputs=("Area",)),
                StaticJoin(
                    shallow, inputs=("Area", "Vessel"), outputs=(), name="shallow"
                ),
            ],
        )
    )

    # The counter fluents back the aggregate rule-sets (3) and (4).
    computed: list[ComputedFluent] = [
        VesselsStoppedIn(close_watch, area_names=[a.name for a in watch]),
        FishingStoppedIn(
            close_forbidden,
            fishing=lambda mmsi: fishing(mmsi),
            area_names=[
                a.name for a in world.areas_of_kind(AreaKind.FORBIDDEN_FISHING)
            ],
        ),
    ]
    return rules, computed

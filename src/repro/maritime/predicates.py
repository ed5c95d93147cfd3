"""Atemporal predicates and counter fluents of the event description.

``close(Lon, Lat, Area)`` "is an atemporal predicate calculating whether the
Haversine distance between a point and an Area is less than some predefined
threshold"; ``shallow(Area, Vessel)`` and ``fishing(Vessel)`` consult static
vessel/area knowledge (Section 4.1).  ``vesselsStoppedIn(Area)=N`` "records
the number of vessels that have stopped in this Area" — implemented as a
computed fluent whose value steps up and down at the endpoints of the
``stopped`` intervals of vessels close to the area.
"""

from collections import defaultdict
from collections.abc import Callable

from repro.rtec.engine import ComputedFluent, EngineView
from repro.rtec.intervals import Interval, OPEN
from repro.simulator.vessel import VesselSpec
from repro.simulator.world import Area
from repro.spatial.grid import StaticBoxIndex


def make_close_predicate(
    areas: list[Area], threshold_meters: float
) -> Callable[[float, float], list[tuple[str]]]:
    """The paper's ``close`` restricted to a set of areas.

    Returns a callable enumerating the names of areas whose distance from
    ``(lon, lat)`` is below the threshold — the enumeration doubles as the
    'declarations' restriction of RTEC: only the given areas are ever
    considered for the CE that uses the predicate.

    A :class:`~repro.spatial.grid.StaticBoxIndex` over the threshold-
    expanded area boxes prefilters candidates; it is exactly conservative
    (``is_close`` starts with the same expanded-box containment test) and
    preserves the area-list enumeration order, so results are identical
    to the linear scan.
    """
    index = StaticBoxIndex(
        (position, area.polygon.bbox.expanded(threshold_meters))
        for position, area in enumerate(areas)
    )

    def close(lon: float, lat: float) -> list[tuple[str]]:
        return [
            (areas[position].name,)
            for position in index.candidates(lon, lat)
            if areas[position].polygon.is_close(lon, lat, threshold_meters)
        ]

    close.__name__ = "close"
    return close


def make_shallow_predicate(
    areas: list[Area], specs: dict[int, VesselSpec]
) -> Callable[[str, int], bool]:
    """``shallow(Area, Vessel)``: the area is too shallow for the vessel.

    True when the vessel's draft exceeds the area's charted depth.  Vessels
    missing from the static database are conservatively assumed safe, as the
    paper's predicate would fall back to estimating from characteristics.
    """
    depth_by_name = {area.name: area.depth_meters for area in areas}

    def shallow(area_name: str, mmsi: int) -> bool:
        depth = depth_by_name.get(area_name)
        spec = specs.get(mmsi)
        if depth is None or spec is None:
            return False
        return spec.draft_meters > depth

    shallow.__name__ = "shallow"
    return shallow


def make_fishing_predicate(specs: dict[int, VesselSpec]) -> Callable[[int], bool]:
    """``fishing(Vessel)``: the static fishing-vessel designation."""

    def fishing(mmsi: int) -> bool:
        spec = specs.get(mmsi)
        return spec is not None and spec.is_fishing

    fishing.__name__ = "fishing"
    return fishing


class _StoppedCounter(ComputedFluent):
    """Base class: count vessels concurrently stopped close to each area.

    For every maximal ``stopped`` interval of every (eligible) vessel, the
    vessel's coordinates at the stop start select the areas it is close to;
    the per-area count is then the step function stepping +1 at each
    interval start and -1 at each closed interval end.
    """

    depends_on_fluents = frozenset({"stopped"})

    def __init__(
        self,
        close: Callable[[float, float], list[tuple[str]]],
        eligible: Callable[[int], bool] | None = None,
        area_names: list[str] | None = None,
    ):
        self._close = close
        self._eligible = eligible
        # Areas that always carry a count instance (value 0 when idle), so
        # rules can test "the count is zero" rather than failing on lookup.
        self._area_names = list(area_names or [])

    def compute(
        self, view: EngineView
    ) -> dict[tuple, dict[object, list[Interval]]]:
        """Per-area count intervals for the current window."""
        deltas: dict[str, list[tuple[int, int]]] = {
            name: [] for name in self._area_names
        }
        for args, value_intervals in view.fluent_instances("stopped").items():
            vessel = args[0]
            if self._eligible is not None and not self._eligible(vessel):
                continue
            for ts, tf in value_intervals.get(True, []):
                for area_name in self._areas_for_stop(view, vessel, ts):
                    deltas.setdefault(area_name, []).append((ts, +1))
                    if tf != OPEN:
                        deltas[area_name].append((int(tf), -1))

        result: dict[tuple, dict[object, list[Interval]]] = {}
        for area_name, changes in deltas.items():
            result[(area_name,)] = _count_step_function(
                changes, leading_edge=view.window_start
            )
        return result

    def _areas_for_stop(
        self, view: EngineView, vessel: int, ts: int
    ) -> list[str]:
        """Areas a vessel's stop counts toward."""
        coord = view.value_at("coord", (vessel,), max(ts, view.window_start))
        if coord is None:
            # No position known for the stop: cannot place it.
            return []
        lon, lat = coord
        return [area_name for (area_name,) in self._close(lon, lat)]


def _count_step_function(
    changes: list[tuple[int, int]], leading_edge: int
) -> dict[object, list[Interval]]:
    """Turn (+1/-1, time) deltas into per-count maximal intervals.

    Counts follow the fluent semantics: a count value N set at time t holds
    on ``(t, t_next]``.  Zero-count stretches *do* carry an interval, so that
    rules can test ``N == 0``; the count starts at zero from the window's
    leading edge.
    """
    # Merge simultaneous changes so the count never flickers within a second.
    merged: dict[int, int] = defaultdict(int)
    for time, delta in changes:
        merged[time] += delta
    timeline = sorted(merged.items())

    intervals: dict[object, list[Interval]] = defaultdict(list)
    count = 0
    previous_time = min(leading_edge, timeline[0][0]) if timeline else leading_edge
    for time, delta in timeline:
        if time > previous_time:
            intervals[count].append((previous_time, time))
        count += delta
        previous_time = time
    intervals[count].append((previous_time, OPEN))
    return dict(intervals)


class VesselsStoppedIn(_StoppedCounter):
    """``vesselsStoppedIn(Area)=N`` over all vessels (rule-set (3))."""

    functor = "vesselsStoppedIn"


class FishingStoppedIn(_StoppedCounter):
    """``fishingStoppedIn(Area)=N`` over fishing vessels only.

    Supports the termination conditions of ``illegalFishing`` (the paper
    omits their full formalization; see :mod:`repro.maritime.definitions`).
    """

    functor = "fishingStoppedIn"

    def __init__(
        self,
        close,
        fishing: Callable[[int], bool],
        area_names: list[str] | None = None,
    ):
        super().__init__(close, eligible=fishing, area_names=area_names)

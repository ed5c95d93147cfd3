"""The pairwise monitor: movement events in, amalgamated pair facts out.

The monitor runs once per slide, over the slide's movement-event stream.
All pairwise geometry happens here: last-seen tracks per vessel, a fresh
:class:`~repro.spatial.grid.SlideGridIndex` per slide,
closest-point-of-approach projection, offshore tests, and gap pairing.
What leaves is a flat, canonically sorted list of :class:`PairFact`
records; the RTEC rules (:mod:`repro.maritime.pairwise.rules`) never see
a coordinate.

Episode anchoring
-----------------
Every proximity episode fixes an ``anchor_lon`` — the midpoint longitude
of the pair when it first came within range.  Every subsequent fact of
that episode (including the closing ``pair_far``) carries the same
anchor, so a longitude-partitioned recognizer that routes each fact by
its anchor sees the initiation and termination of a pair's fluents in
the same partition.
"""

from dataclasses import dataclass

from repro import obs
from repro.geo.haversine import haversine_meters
from repro.maritime.pairwise.config import PairwiseConfig
from repro.maritime.pairwise.rules import (
    DARK_GAP,
    PAIR_CLOSE,
    PAIR_CPA_RISK,
    PAIR_FAR,
    PAIR_OFFSHORE,
    PAIR_SLOW,
    PAIR_SPEEDUP,
)
from repro.simulator.world import WorldModel
from repro.spatial.cpa import closest_point_of_approach
from repro.spatial.grid import SlideGridIndex
from repro.tracking.types import MovementEvent, MovementEventType


@dataclass(frozen=True)
class PairFact:
    """One amalgamated spatial fact, ready for RTEC assertion.

    ``anchor_lon`` is the routing key: all facts of one episode carry
    the episode's fixed anchor (see the module docstring).
    """

    functor: str
    args: tuple
    timestamp: int
    anchor_lon: float


@dataclass
class _Track:
    """Last-seen kinematic state of one vessel."""

    lon: float
    lat: float
    timestamp: int
    speed_mps: float
    heading_degrees: float


@dataclass
class _Episode:
    """State of one ongoing proximity episode."""

    anchor_lon: float
    slow: bool = False
    cpa_risk: bool = False


def _midpoint_lon(lon1: float, lon2: float) -> float:
    """Short-arc midpoint longitude, normalised to [-180, 180)."""
    delta = (lon2 - lon1 + 180.0) % 360.0 - 180.0
    return (lon1 + delta / 2.0 + 180.0) % 360.0 - 180.0


class PairwiseMonitor:
    """Stateful per-slide producer of pair facts.

    Parameters
    ----------
    world:
        Supplies the port anchors for the offshore test.
    config:
        Pairwise thresholds; defaults reproduce the documented values.
    """

    def __init__(self, world: WorldModel, config: PairwiseConfig | None = None):
        self.world = world
        self.config = config or PairwiseConfig()
        self._tracks: dict[int, _Track] = {}
        self._episodes: dict[tuple[int, int], _Episode] = {}
        #: Per-vessel flag: the open gap started offshore.
        self._gap_started_offshore: dict[int, bool] = {}

    # -- helpers -----------------------------------------------------------

    def _offshore(self, lon: float, lat: float) -> bool:
        """True when the point is far from every port anchor."""
        threshold = self.config.offshore_distance_meters
        return all(
            haversine_meters(port.lon, port.lat, lon, lat) > threshold
            for port in self.world.ports
        )

    def _cpa_risky(self, first: _Track, second: _Track) -> bool:
        """Projected closest approach inside the risk envelope?"""
        config = self.config
        if (
            first.speed_mps < config.cpa_min_speed_mps
            or second.speed_mps < config.cpa_min_speed_mps
        ):
            return False
        tcpa, dcpa = closest_point_of_approach(
            first.lon, first.lat, first.speed_mps, first.heading_degrees,
            second.lon, second.lat, second.speed_mps, second.heading_degrees,
        )
        return (
            0.0 <= tcpa <= config.cpa_horizon_seconds
            and dcpa <= config.cpa_distance_meters
        )

    # -- the slide step ----------------------------------------------------

    def observe(
        self, events: list[MovementEvent], query_time: int
    ) -> list[PairFact]:
        """Fold one slide's movement events into pair facts.

        Determinism contract: the returned facts are a pure function of
        the event *multiset* and the query time — the fold below sorts
        the events canonically first, so the order the tracker emitted
        them in does not matter, and all later iteration is over sorted
        MMSIs and sorted pair keys.
        """
        facts: list[PairFact] = []
        updated: set[int] = set()

        ordered = sorted(
            events,
            key=lambda e: (e.mmsi, e.timestamp, e.event_type.value),
        )
        for event in ordered:
            track = self._tracks.get(event.mmsi)
            if track is None or event.timestamp >= track.timestamp:
                self._tracks[event.mmsi] = _Track(
                    lon=event.lon,
                    lat=event.lat,
                    timestamp=event.timestamp,
                    speed_mps=event.speed_mps,
                    heading_degrees=event.heading_degrees,
                )
                updated.add(event.mmsi)
            if event.event_type is MovementEventType.GAP_START:
                self._gap_started_offshore[event.mmsi] = self._offshore(
                    event.lon, event.lat
                )
            elif event.event_type is MovementEventType.GAP_END:
                started_offshore = self._gap_started_offshore.pop(
                    event.mmsi, False
                )
                if started_offshore and self._offshore(event.lon, event.lat):
                    facts.append(PairFact(
                        DARK_GAP, (event.mmsi,), event.timestamp, event.lon,
                    ))

        # Expire stale tracks; their episodes end now, at query time.
        horizon = query_time - self.config.stale_seconds
        expired = [
            mmsi
            for mmsi in sorted(self._tracks)
            if self._tracks[mmsi].timestamp < horizon
        ]
        for mmsi in expired:
            del self._tracks[mmsi]
        if expired:
            gone = set(expired)
            for pair in sorted(self._episodes):
                if pair[0] in gone or pair[1] in gone:
                    facts.append(PairFact(
                        PAIR_FAR, pair, query_time,
                        self._episodes[pair].anchor_lon,
                    ))
                    del self._episodes[pair]

        with obs.timed_span("pairwise.index_build"):
            index = SlideGridIndex(self.config.proximity_radius_meters)
            for mmsi in sorted(self._tracks):
                track = self._tracks[mmsi]
                index.insert(mmsi, track.lon, track.lat)
        close_now = index.close_pairs()
        obs.count("pairwise.candidate_pairs", index.candidates_examined)
        obs.count("pairwise.close_pairs", len(close_now))

        active: set[tuple[int, int]] = set()
        for pair in close_now:
            if pair[0] not in updated and pair[1] not in updated:
                # Nothing moved: the episode's facts for this state were
                # already emitted with this timestamp on an earlier slide.
                active.add(pair)
                continue
            first = self._tracks[pair[0]]
            second = self._tracks[pair[1]]
            timestamp = max(first.timestamp, second.timestamp)
            episode = self._episodes.get(pair)
            if episode is None:
                episode = _Episode(
                    anchor_lon=_midpoint_lon(first.lon, second.lon)
                )
                self._episodes[pair] = episode
            active.add(pair)
            anchor = episode.anchor_lon
            facts.append(PairFact(PAIR_CLOSE, pair, timestamp, anchor))

            low_speed = self.config.low_speed_mps
            slow = (
                first.speed_mps <= low_speed
                and second.speed_mps <= low_speed
            )
            if slow:
                facts.append(PairFact(PAIR_SLOW, pair, timestamp, anchor))
                if self._offshore(first.lon, first.lat) and self._offshore(
                    second.lon, second.lat
                ):
                    facts.append(PairFact(
                        PAIR_OFFSHORE, pair, timestamp, anchor,
                    ))
            elif episode.slow:
                facts.append(PairFact(PAIR_SPEEDUP, pair, timestamp, anchor))
            episode.slow = slow

            risky = self._cpa_risky(first, second)
            if risky and not episode.cpa_risk:
                facts.append(PairFact(PAIR_CPA_RISK, pair, timestamp, anchor))
            episode.cpa_risk = risky

        # Episodes that stopped being close (with a member still fresh
        # and updated) separate at the latest member timestamp.
        for pair in sorted(self._episodes):
            if pair in active:
                continue
            if pair[0] not in updated and pair[1] not in updated:
                continue
            first = self._tracks.get(pair[0])
            second = self._tracks.get(pair[1])
            if first is None or second is None:
                continue  # already closed by the staleness pass
            timestamp = max(first.timestamp, second.timestamp)
            facts.append(PairFact(
                PAIR_FAR, pair, timestamp, self._episodes[pair].anchor_lon,
            ))
            del self._episodes[pair]

        facts.sort(key=lambda fact: (fact.timestamp, fact.functor, fact.args))
        obs.count("pairwise.facts", len(facts))
        return facts

"""Deterministic routing of streams onto shards (Section 5.2 topology).

The runtime partitions work along two independent axes:

* **Tracking/compression** shards by *vessel*: the Mobility Tracker and the
  Compressor keep strictly per-MMSI state, so hashing the MMSI spreads the
  fleet across workers while preserving each vessel's arrival order.  The
  hash is an explicit multiplicative mix — never Python's salted ``hash`` —
  so routing is identical across processes and interpreter runs.
* **Recognition** shards by *longitude band*, reusing
  :func:`repro.maritime.partition.partition_world`: each band owns the
  areas whose centroid falls inside it, and receives every movement event
  that could possibly match one of those areas.  "The input MEs are
  forwarded to the appropriate processor (according to vessel location)."

Band routing is *envelope-based*: an event is forwarded to a band when its
longitude falls inside the band's acceptance envelope — the union of the
band's area bounding boxes expanded by the ``close`` threshold (areas may
well spill over the band edge that contains their centroid).  This makes
band-parallel recognition exact, not approximate: every rule in the
maritime event description joins the triggering event's coordinates against
the band's own areas, so a band that sees all events within its envelope
derives precisely the complex events a single engine would derive for its
areas, and the union over (disjoint) bands equals the single-engine result.
Events outside every envelope cannot match any area; they are routed to
the raw band containing their longitude so per-band input counts stay
meaningful.
"""

from repro.ais.stream import PositionalTuple
from repro.maritime.pairwise.monitor import PairFact
from repro.maritime.partition import partition_world
from repro.simulator.world import WorldModel
from repro.tracking.types import MovementEvent

#: Knuth's multiplicative constant (2^32 / phi), for MMSI mixing; spreads
#: consecutive MMSIs (fleets are often numbered in blocks) evenly.
_MIX = 2654435761
_MASK = 0xFFFFFFFF


def shard_for_mmsi(mmsi: int, shards: int) -> int:
    """The tracking shard — or, in a gateway cluster, the backend runtime —
    owning a vessel; deterministic across processes."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return ((mmsi * _MIX) & _MASK) % shards


class ShardRouter:
    """Route positional tuples to tracking shards and MEs to bands.

    Parameters
    ----------
    world:
        The monitored region; its longitude span defines the bands.
    shards:
        Number of workers; tracking shard count and band count coincide
        (worker *i* runs tracking shard *i* and recognition band *i*).
    close_margin_meters:
        How far outside an area's bounding box an event may still satisfy
        the ``close`` predicate; the acceptance envelopes expand by this.
    """

    def __init__(
        self,
        world: WorldModel,
        shards: int,
        close_margin_meters: float = 0.0,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.world = world
        self.shards = shards
        self.bands = partition_world(world, shards)
        #: Per-band acceptance envelopes as (min_lon, max_lon) intervals.
        self.envelopes: list[list[tuple[float, float]]] = []
        for band in self.bands:
            intervals = []
            for area in band.areas:
                bbox = area.polygon.bbox
                if close_margin_meters > 0.0:
                    bbox = bbox.expanded(close_margin_meters)
                intervals.append((bbox.min_lon, bbox.max_lon))
            self.envelopes.append(_merge_intervals(intervals))

    # -- tracking axis ----------------------------------------------------

    def route_positions(
        self, batch: list[PositionalTuple]
    ) -> list[list[tuple[int, PositionalTuple]]]:
        """Split a slide batch into per-shard sub-batches.

        Each position keeps its global index within the batch, so the
        merge stage can reconstruct the exact single-process event order
        (see :mod:`repro.runtime.merge`).  Per-vessel arrival order is
        preserved because the split is a stable filter.
        """
        routed: list[list[tuple[int, PositionalTuple]]] = [
            [] for _ in range(self.shards)
        ]
        for index, position in enumerate(batch):
            routed[shard_for_mmsi(position.mmsi, self.shards)].append(
                (index, position)
            )
        return routed

    # -- recognition axis -------------------------------------------------

    def bands_for_longitude(self, lon: float) -> list[int]:
        """Every band whose acceptance envelope contains ``lon``."""
        matched = [
            index
            for index, intervals in enumerate(self.envelopes)
            if any(lo <= lon <= hi for lo, hi in intervals)
        ]
        if matched:
            return matched
        return [self._raw_band(lon)]

    def route_events(
        self,
        events: list[MovementEvent],
        extra_bands_by_mmsi: dict[int, tuple[int, ...]] | None = None,
    ) -> list[list[MovementEvent]]:
        """Fan movement events out to the band workers that may need them.

        An event near a band boundary is forwarded to every band whose
        envelope covers it (duplicates are harmless: a band only derives
        CEs for its own areas, and bands hold disjoint area sets).

        ``extra_bands_by_mmsi`` adds pairwise co-routing: a vessel that is
        a member of a pair fact is additionally forwarded to the band
        owning that fact's episode anchor (see :meth:`pair_fact_bands`),
        so both members' critical points land in the same recognition
        partition.  The extra copies cannot perturb area-CE output — an
        event outside a band's envelope cannot satisfy any of that band's
        ``close`` predicates by construction.
        """
        routed: list[list[MovementEvent]] = [[] for _ in range(self.shards)]
        for event in events:
            bands = self.bands_for_longitude(event.lon)
            if extra_bands_by_mmsi:
                for band in extra_bands_by_mmsi.get(event.mmsi, ()):
                    if band not in bands:
                        bands = [*bands, band]
            for band in bands:
                routed[band].append(event)
        return routed

    # -- pairwise axis ----------------------------------------------------

    def route_pair_facts(
        self, facts: list[PairFact]
    ) -> list[list[PairFact]]:
        """Send each pair fact to exactly one band: its episode anchor's.

        The anchor longitude is fixed when an episode opens and repeated
        on every fact of the episode, so initiation and termination of a
        pair's fluents always reach the same band engine — the invariant
        that keeps sharded pairwise output byte-identical.
        """
        routed: list[list[PairFact]] = [[] for _ in range(self.shards)]
        for fact in facts:
            routed[self._raw_band(fact.anchor_lon)].append(fact)
        return routed

    def pair_fact_bands(
        self, facts: list[PairFact]
    ) -> dict[int, tuple[int, ...]]:
        """Owner bands per member vessel of this slide's pair facts."""
        bands: dict[int, set[int]] = {}
        for fact in facts:
            band = self._raw_band(fact.anchor_lon)
            for mmsi in fact.args:
                bands.setdefault(mmsi, set()).add(band)
        return {
            mmsi: tuple(sorted(bands[mmsi])) for mmsi in sorted(bands)
        }

    def _raw_band(self, lon: float) -> int:
        for index, band in enumerate(self.bands[:-1]):
            if lon < band.bbox.max_lon:
                return index
        return self.shards - 1


def _merge_intervals(
    intervals: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Coalesce overlapping (lo, hi) intervals; keeps lookups short."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged

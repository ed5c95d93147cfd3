"""Data types produced by the trajectory detection component.

The tracker emits :class:`MovementEvent` records (the paper's *trajectory
events*); the compressor turns them into :class:`CriticalPoint` records —
annotated locations that survive compression and feed both map display and
complex event recognition.
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.geo.units import mps_to_knots


class MovementEventType(enum.Enum):
    """Kinds of trajectory events (Section 3.1).

    ``PAUSE``, ``SPEED_CHANGE``, ``TURN`` and ``OFF_COURSE`` are
    instantaneous; the rest are long-lasting.  ``STOP_START`` / ``STOP_END``
    bracket the durative ``stopped`` movement event consumed by RTEC;
    ``GAP_START`` is reported at the location where a communication gap began
    and ``GAP_END`` when the vessel resumed reporting.
    """

    PAUSE = "pause"
    SPEED_CHANGE = "speed_change"
    TURN = "turn"
    OFF_COURSE = "off_course"
    GAP_START = "gap_start"
    GAP_END = "gap_end"
    SMOOTH_TURN = "smooth_turn"
    STOP_START = "stop_start"
    STOP_END = "stop_end"
    SLOW_MOTION = "slow_motion"


#: Event kinds that directly yield critical points.  Instantaneous pauses and
#: off-course positions never do: a pause only matters once it aggregates
#: into a long-term stop, and off-course positions are discarded as noise.
CRITICAL_EVENT_TYPES = frozenset(
    {
        MovementEventType.SPEED_CHANGE,
        MovementEventType.TURN,
        MovementEventType.GAP_START,
        MovementEventType.GAP_END,
        MovementEventType.SMOOTH_TURN,
        MovementEventType.STOP_START,
        MovementEventType.STOP_END,
        MovementEventType.SLOW_MOTION,
    }
)


@dataclass(frozen=True)
class VelocityVector:
    """Instantaneous velocity: speed in m/s plus heading in degrees."""

    speed_mps: float
    heading_degrees: float

    @property
    def speed_knots(self) -> float:
        """Speed converted to knots."""
        return mps_to_knots(self.speed_mps)


class MovementEvent(NamedTuple):
    """One detected trajectory event for one vessel.

    ``timestamp``/``lon``/``lat`` locate the event; for aggregated events
    (long-term stop, slow motion) they are the representative point (centroid
    or median) and ``duration_seconds`` covers the aggregated run.  A named
    tuple, like :class:`CriticalPoint`: the tracker and the compressor build
    them inside a slide's close, where a frozen dataclass's ``__init__``
    costs several times a tuple's.
    """

    event_type: MovementEventType
    mmsi: int
    lon: float
    lat: float
    timestamp: int
    speed_mps: float = 0.0
    heading_degrees: float = 0.0
    duration_seconds: int = 0

    @property
    def speed_knots(self) -> float:
        """Speed at the event, in knots."""
        return mps_to_knots(self.speed_mps)


class CriticalPoint(NamedTuple):
    """A location retained by the compressor, with its annotations.

    One physical point may carry several annotations (e.g. a speed change
    coinciding with a turn); the compressor merges simultaneous events of the
    same vessel into one critical point.
    """

    mmsi: int
    lon: float
    lat: float
    timestamp: int
    annotations: frozenset[MovementEventType]
    speed_mps: float = 0.0
    heading_degrees: float = 0.0
    duration_seconds: int = 0

    def has(self, event_type: MovementEventType) -> bool:
        """Whether this point carries the given annotation."""
        return event_type in self.annotations

    @property
    def speed_knots(self) -> float:
        """Speed at the point, in knots."""
        return mps_to_knots(self.speed_mps)

    def as_timed_point(self) -> tuple[float, float, int]:
        """The bare (lon, lat, timestamp) triple, for interpolation."""
        return (self.lon, self.lat, self.timestamp)


@dataclass
class TrackerStatistics:
    """Counters for tracker observability and the compression study."""

    positions_seen: int = 0
    positions_discarded_as_outliers: int = 0
    positions_out_of_sequence: int = 0
    events_by_type: dict[MovementEventType, int] = field(default_factory=dict)

    def count_event(self, event_type: MovementEventType) -> None:
        """Increment the per-type event counter."""
        self.events_by_type[event_type] = self.events_by_type.get(event_type, 0) + 1

"""Trajectory detection: the paper's first main component (Section 3).

The Mobility Tracker consumes the cleaned positional stream and maintains
one velocity vector per vessel, detecting *instantaneous* trajectory
events (pause, speed change, turn, off-course outliers) in O(1) per tuple
and *long-lasting* events (communication gap, smooth turn, long-term stop,
slow motion) in O(m) over the last m positions.  One kernel implements
that contract: the batch/columnar :class:`ColumnarTracker`, held
byte-identical to the scalar per-tuple reference in
``tests/tracking/oracle.py``.  The :class:`Compressor` filters those
events at each window slide and emits annotated *critical points* — the
~6 % of input locations that suffice to reconstruct each vessel's course.
"""

from repro.tracking.columnar import ColumnarTracker
from repro.tracking.compressor import Compressor
from repro.tracking.config import TrackingParameters
from repro.tracking.exporter import TrajectoryExporter
from repro.tracking.types import (
    CriticalPoint,
    MovementEvent,
    MovementEventType,
    VelocityVector,
)
from repro.tracking.window import SlidingWindow, WindowSpec

__all__ = [
    "ColumnarTracker",
    "Compressor",
    "CriticalPoint",
    "MovementEvent",
    "MovementEventType",
    "SlidingWindow",
    "TrackingParameters",
    "TrajectoryExporter",
    "VelocityVector",
    "WindowSpec",
]

"""Trajectory detection: the paper's first main component (Section 3).

The Mobility Tracker consumes the cleaned positional stream and maintains
one velocity vector per vessel, detecting *instantaneous* trajectory
events (pause, speed change, turn, off-course outliers) in O(1) per tuple
and *long-lasting* events (communication gap, smooth turn, long-term stop,
slow motion) in O(m) over the last m positions.  Two kernels implement
that contract with byte-identical event streams: the batch/columnar
:class:`ColumnarTracker`, which every pipeline constructs, and the scalar
:class:`MobilityTracker`, the per-tuple reference the parity tests and
``benchmarks/drills.py tracking-sweep`` compare it against.  The
:class:`Compressor` filters those events at each window slide and emits
annotated *critical points* — the ~6 % of input locations that suffice to
reconstruct each vessel's course.
"""

from repro.tracking.columnar import ColumnarTracker
from repro.tracking.compressor import Compressor
from repro.tracking.config import TrackingParameters
from repro.tracking.exporter import TrajectoryExporter
from repro.tracking.tracker import MobilityTracker
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
    "MobilityTracker",
    "MovementEvent",
    "MovementEventType",
    "SlidingWindow",
    "TrackingParameters",
    "TrajectoryExporter",
    "VelocityVector",
    "WindowSpec",
]

"""Trajectory detection: the paper's first main component (Section 3).

The Mobility Tracker consumes the cleaned positional stream and maintains
one velocity vector per vessel, detecting *instantaneous* trajectory
events (pause, speed change, turn, off-course outliers) in O(1) per tuple
and *long-lasting* events (communication gap, smooth turn, long-term stop,
slow motion) in O(m) over the last m positions.  Two interchangeable
kernels implement that contract — the scalar reference
:class:`MobilityTracker` and the batch/columnar :class:`ColumnarTracker`
(the default) — selected by name through :func:`create_tracker`; both
emit byte-identical event streams.  The
:class:`Compressor` filters those events at each window slide and emits
annotated *critical points* — the ~6 % of input locations that suffice to
reconstruct each vessel's course.
"""

from repro.tracking.backends import (
    DEFAULT_BACKEND,
    available_backends,
    backend_name,
    create_tracker,
)
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
    "DEFAULT_BACKEND",
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
    "available_backends",
    "backend_name",
    "create_tracker",
]

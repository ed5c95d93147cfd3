"""Tracking backend registry: pick a kernel at runtime, keep the events.

Two interchangeable kernels implement the Mobility Tracker contract:

``scalar``
    :class:`~repro.tracking.tracker.MobilityTracker` — the reference
    per-tuple implementation, clearest to read, slowest to run.
``array``
    :class:`~repro.tracking.columnar.ColumnarTracker` — the fused
    batch/columnar kernel over :mod:`array` columns; the default.

Both emit byte-identical event streams (see
``tests/tracking/test_columnar_parity.py``), so the choice is purely a
throughput knob, and users are not offered it: ``scalar`` is reached
through ``SystemConfig.tracking_backend`` by the parity tests and by
``benchmarks/drills.py tracking-sweep``, both via :func:`create_tracker`.
"""

from repro.tracking.columnar import ColumnarTracker
from repro.tracking.config import TrackingParameters
from repro.tracking.tracker import MobilityTracker

#: The backend every system uses unless configured otherwise.
DEFAULT_BACKEND = "array"

_REGISTRY: dict[str, type] = {
    "scalar": MobilityTracker,
    "array": ColumnarTracker,
}


def available_backends() -> list[str]:
    """Names of the kernels constructible in this environment."""
    return sorted(_REGISTRY)


def create_tracker(
    parameters: TrackingParameters | None = None,
    backend: str = DEFAULT_BACKEND,
):
    """Construct the tracker implementing ``backend``.

    Raises ``ValueError`` for unknown names, listing what is available.
    """
    tracker_class = _REGISTRY.get(backend)
    if tracker_class is None:
        known = ", ".join(available_backends())
        raise ValueError(
            f"unknown tracking backend {backend!r} (available: {known})"
        )
    return tracker_class(parameters)


def backend_name(tracker) -> str:
    """The registry name of a tracker instance (``scalar`` if untyped)."""
    return getattr(tracker, "backend_name", "scalar")

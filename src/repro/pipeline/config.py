"""System-level configuration combining all component settings."""

from dataclasses import dataclass, field

from repro.maritime.config import MaritimeConfig
from repro.maritime.pairwise.config import PairwiseConfig
from repro.tracking.config import TrackingParameters
from repro.tracking.window import WindowSpec


@dataclass(frozen=True)
class SystemConfig:
    """One place for every knob of the surveillance pipeline.

    ``window`` drives both the tracking synopsis window and the stream
    replayer slide; ``recognition_window_seconds`` defaults to the same
    range but can be set independently, since the CE experiments of
    Figure 11 sweep the RTEC window separately.
    """

    window: WindowSpec = field(
        default_factory=lambda: WindowSpec.of_hours(1, 1 / 6)
    )
    tracking: TrackingParameters = field(default_factory=TrackingParameters)
    maritime: MaritimeConfig = field(default_factory=MaritimeConfig)
    recognition_window_seconds: int | None = None
    #: Recognize pairwise (vessel-vs-vessel) complex events — encounter,
    #: rendezvous, CPA risk, dark ship.  See :mod:`repro.maritime.pairwise`.
    pairwise: bool = False
    pairwise_config: PairwiseConfig = field(default_factory=PairwiseConfig)
    #: Complex-event scope.  ``full`` (the paper's rule set) includes the
    #: per-area aggregate CEs (``suspicious``, ``illegalFishing``) whose
    #: vessel counters span every vessel in an area; ``vessel`` keeps only
    #: the vessel-local CEs (``illegalShipping``, ``dangerousShipping``),
    #: making recognition decomposable by MMSI — the contract a gateway
    #: cluster of independent runtimes requires (docs/GATEWAY.md).
    ce_scope: str = "full"
    #: Disable the CE recognition phase entirely (the Figure 10 experiment
    #: measures only the trajectory-maintenance phases).
    enable_recognition: bool = True
    #: Reconstruct staged trips into the MOD at every slide.
    reconstruct_each_slide: bool = True
    #: Path of the MOD database file (":memory:" keeps everything in RAM).
    database_path: str = ":memory:"

    @property
    def effective_recognition_window(self) -> int:
        """The RTEC window range in seconds."""
        if self.recognition_window_seconds is not None:
            return self.recognition_window_seconds
        return self.window.range_seconds

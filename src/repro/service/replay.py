"""Offline twin of the live service, for byte-identical parity checks.

:func:`offline_feed_lines` pushes a recorded sentence stream through the
exact components the live path uses — :class:`~repro.ais.scanner.DataScanner`,
:class:`~repro.ais.stream.StreamReplayer` batching and the same
:class:`~repro.pipeline.system.SurveillanceSystem` — and serializes each
slide with the same :func:`~repro.service.protocol.slide_feed_line`.  The
soak tests assert that a stream ingested over real TCP sockets yields
*these bytes*; the acceptance criterion of the live subsystem is that the
network added nothing and lost nothing (anything shed is counted).
"""

from repro.ais.scanner import DataScanner
from repro.ais.stream import StreamReplayer, TimedArrival
from repro.pipeline.config import SystemConfig
from repro.pipeline.system import SurveillanceSystem
from repro.service.protocol import slide_feed_line


def offline_feed_lines(
    sentences: list[tuple[int, str]],
    world,
    specs,
    config: SystemConfig | None = None,
) -> list[str]:
    """Feed lines an offline replay of ``sentences`` produces."""
    config = config or SystemConfig()
    scanner = DataScanner()
    positions = scanner.scan_many(sentences)
    scanner.flush()
    lines = []
    with SurveillanceSystem(world, specs, config) as system:
        replayer = StreamReplayer(
            [TimedArrival(p.timestamp, p) for p in positions],
            config.window.slide_seconds,
        )
        for query_time, batch in replayer.batches():
            report = system.process_slide(batch, query_time)
            lines.append(slide_feed_line(report, "slide"))
        final = system.finalize()
        if final is not None:
            lines.append(slide_feed_line(final, "finalize"))
    return lines

"""Wire formats shared by the live service and its offline twin.

Three small, stable layers:

* **Ingest lines** — raw ``!AIVDM`` sentences, optionally prefixed with a
  receiver timestamp (``<epoch-seconds><TAB-or-space>!AIVDM...``), the
  convention of timestamped NMEA feed archives.  Without a prefix the
  server stamps the line with its own clock.
* **Feed lines** — newline-delimited JSON.  One ``slide`` object per
  completed window slide carrying the alerts and fresh critical points,
  and one final ``finalize`` object when the service drains.
* **JSON shapes** — :func:`alert_to_dict` / :func:`point_to_dict` define
  the only serialization of alerts and critical points; the soak-parity
  test compares the online and offline paths *byte for byte*, which only
  means something because both sides call these functions.

Everything here is pure and synchronous so the offline replay
(:mod:`repro.service.replay`) produces identical bytes without sockets.
"""

import json

from repro.maritime.recognizer import Alert
from repro.pipeline.metrics import SlideReport
from repro.tracking.types import CriticalPoint


def parse_ingest_line(line: str, default_time: int) -> tuple[int, str] | None:
    """Split one ingest line into ``(receive_time, sentence)``.

    Returns ``None`` for blank lines and ``#`` comments.  A leading
    integer field (separated by a tab or space) is the receiver
    timestamp; otherwise ``default_time`` (the server's clock) is used.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    if not line.startswith("!"):
        head, _, rest = line.replace("\t", " ").partition(" ")
        if rest:
            try:
                return int(head), rest.strip()
            except ValueError:
                pass
    return default_time, line


def parse_ingest_lines(lines: list[str], default_time: int) -> list[tuple[int, str]]:
    """:func:`parse_ingest_line` of each line, ``None`` results dropped."""
    return [
        item for line in lines
        if (item := parse_ingest_line(line, default_time)) is not None
    ]


def format_ingest_line(receive_time: int, sentence: str) -> str:
    """The timestamped ingest form: ``<epoch-seconds>\\t<sentence>``."""
    return f"{receive_time}\t{sentence}"


#: Sentence prefix of every in-band control line.  Deliberately
#: ``!``-prefixed so :func:`parse_ingest_line` passes it through
#: untouched, and deliberately not ``!AIVDM`` so the AIS scanner would
#: reject it — the batcher intercepts it first (docs/GATEWAY.md).  A
#: ``!REPRO,`` line that is neither a watermark nor a heartbeat is data,
#: and the scanner rejects it.
CONTROL_PREFIX = "!REPRO,"

#: Sentence prefix of an in-band watermark (``!REPRO,WM,<source>[,final]``).
WATERMARK_PREFIX = CONTROL_PREFIX + "WM,"


def format_watermark(receive_time: int, source: str, final: bool = False) -> str:
    """One in-band watermark line: the source's clock has reached
    ``receive_time`` and no earlier sentence will follow from it."""
    suffix = ",final" if final else ""
    return format_ingest_line(receive_time, f"{WATERMARK_PREFIX}{source}{suffix}")


def parse_watermark(sentence: str) -> tuple[str, bool] | None:
    """``(source, final)`` if ``sentence`` is a watermark, else ``None``."""
    if not sentence.startswith(WATERMARK_PREFIX):
        return None
    body = sentence[len(WATERMARK_PREFIX):]
    source, sep, flag = body.partition(",")
    if not source:
        return None
    if sep and flag != "final":
        return None
    return source, bool(sep)


#: Sentence prefix of an in-band heartbeat (``!REPRO,HB,<source>,<seq>``).
#: Rides the same control-line channel as watermarks, intercepted by the
#: batcher before the scanner.  Heartbeats are pure liveness probes — a
#: runtime counts and discards them, and they never advance watermark
#: clocks, so the slide cadence (and the byte-identity contract) is
#: untouched by however often the supervisor probes.
HEARTBEAT_PREFIX = CONTROL_PREFIX + "HB,"


def format_heartbeat(source: str, seq: int) -> str:
    """One in-band heartbeat line from ``source`` (timestamp 0: a probe
    carries no clock — it must never perturb the watermark grid)."""
    return format_ingest_line(0, f"{HEARTBEAT_PREFIX}{source},{seq}")


def parse_heartbeat(sentence: str) -> tuple[str, int] | None:
    """``(source, seq)`` if ``sentence`` is a heartbeat, else ``None``."""
    if not sentence.startswith(HEARTBEAT_PREFIX):
        return None
    source, sep, seq = sentence[len(HEARTBEAT_PREFIX):].partition(",")
    if not source or not sep:
        return None
    try:
        return source, int(seq)
    except ValueError:
        return None


#: First line a feed subscriber may send to opt into the resumable feed:
#: ``RESUME <last-seq>`` asks the hub to replay every line after
#: ``last-seq`` still held in its replay ring and to stamp every
#: subsequent line with its sequence number (``<seq>\\t<payload>``).
#: ``RESUME 0`` means "nothing seen yet" — replay the whole ring.
#: Subscribers that send nothing get the classic unstamped feed, byte
#: for byte (docs/SERVICE.md).
RESUME_PREFIX = "RESUME "


def format_resume(last_seq: int) -> str:
    """The resume handshake line: ``RESUME <last-seq>``."""
    if last_seq < 0:
        raise ValueError(f"last_seq must be >= 0: {last_seq}")
    return f"{RESUME_PREFIX}{last_seq}"


def parse_resume(line: str) -> int | None:
    """The ``last-seq`` of a ``RESUME`` handshake line, else ``None``."""
    if not line.startswith(RESUME_PREFIX):
        return None
    try:
        seq = int(line[len(RESUME_PREFIX):])
    except ValueError:
        return None
    return seq if seq >= 0 else None


def format_stamped_line(seq: int, payload: str) -> str:
    """A feed line stamped for resumable subscribers: ``<seq>\\t<payload>``."""
    return f"{seq}\t{payload}"


def parse_stamped_line(line: str) -> tuple[int, str] | None:
    """``(seq, payload)`` of a stamped feed line, else ``None``."""
    head, sep, payload = line.partition("\t")
    if not sep:
        return None
    try:
        seq = int(head)
    except ValueError:
        return None
    return (seq, payload) if seq > 0 else None


def alert_to_dict(alert: Alert) -> dict:
    """JSON shape of one recognized complex event."""
    return {
        "kind": alert.kind,
        "area": alert.area,
        "since": alert.since,
        "until": alert.until,
        "mmsi": alert.mmsi,
        "mmsi2": alert.mmsi2,
    }


def point_to_dict(point: CriticalPoint) -> dict:
    """JSON shape of one critical point (annotations sorted for stability)."""
    return {
        "mmsi": point.mmsi,
        "lon": point.lon,
        "lat": point.lat,
        "timestamp": point.timestamp,
        "annotations": sorted(a.value for a in point.annotations),
        "speed_knots": point.speed_knots,
        "heading_degrees": point.heading_degrees,
        "duration_seconds": point.duration_seconds,
    }


def _dumps(payload: dict) -> str:
    # Compact separators and sorted keys: the byte-identity contract.
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def point_sort_key(point: dict) -> tuple:
    """Canonical order of critical points within one feed line.

    A total order over the serialized dicts: vessels are disjoint across
    gateway-cluster shards, so sorting each shard's points and the
    single-node pipeline's points with the same key makes the fan-in
    merge byte-identical to the single node (docs/GATEWAY.md).  The
    serialized-dict tiebreaker keeps the key total even for two points of
    one vessel at the same instant.
    """
    return (point["mmsi"], point["timestamp"], _dumps(point))


def slide_feed_line(report: SlideReport, kind: str = "slide") -> str:
    """One feed line for a completed slide (or the ``finalize`` flush)."""
    return _dumps({
        "type": kind,
        "query_time": report.query_time,
        "raw_positions": report.raw_positions,
        "movement_events": report.movement_events,
        "recognized": report.recognized_complex_events,
        "alerts": [alert_to_dict(alert) for alert in report.alerts],
        "critical_points": sorted(
            (point_to_dict(point) for point in report.fresh_points),
            key=point_sort_key,
        ),
    })

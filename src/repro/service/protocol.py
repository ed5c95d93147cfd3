"""Wire formats shared by the live service and its offline twin.

Three small, stable layers:

* **Ingest lines** — raw ``!AIVDM`` sentences, optionally prefixed with a
  receiver timestamp (``<epoch-seconds><TAB-or-space>!AIVDM...``), the
  convention of timestamped NMEA feed archives.  Without a prefix the
  server stamps the line with its own clock.
* **Feed lines** — newline-delimited JSON.  One ``slide`` object per
  completed window slide carrying the alerts and fresh critical points,
  and one final ``finalize`` object when the service drains.
* **Feed encoding** — :func:`alert_fragment` and :func:`point_fragment`
  encode each record once, as ``json.dumps(sort_keys=True)`` with compact
  separators would, and :func:`feed_line` lays the fragments out; the
  single node (:func:`slide_feed_line`) and the gateway merge
  (:func:`repro.gateway.merge.merged_feed_line`) both go through them, so
  the soak and deployment parity tests compare one encoding *byte for
  byte*.  :func:`alert_to_dict` / :func:`point_to_dict` are the same
  records as dicts, the ``/alerts`` shape.

Everything here is pure and synchronous so the offline replay
(:mod:`repro.service.replay`) produces identical bytes without sockets.
"""

import re
from functools import cache
from json.encoder import encode_basestring_ascii

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


#: A *canonical* ingest line: what :func:`format_ingest_line` writes for
#: a usual single-fragment sentence,
#: ``<stamp>\t!AIVDx,1,1,<id>,<ch>,<payload>,0*hh``.  The stamp has at
#: most 18 digits and no leading zero, the payload is at least 7 armor
#: characters, and no field holds ``,``, ``*`` or ASCII whitespace.
#: :func:`parse_ingest_line` reads such a line as ``(int(stamp),
#: sentence)`` and :func:`format_ingest_line` writes it back unchanged,
#: so a gateway forwards it as received.  The same sentence sent bare
#: (no stamp group) parses as ``(default_time, sentence)``.  The groups
#: are the stamp, the sentence and the payload's 7-character MMSI header.
CANONICAL_INGEST_LINE = re.compile(
    r"(?:(0|[1-9][0-9]{0,17})\t)?"
    r"(!AIVD[MO],1,1,[^,*\s]*,[^,*\s]*,([0-W`-w]{7})[0-W`-w]*,0\*[0-9A-Fa-f]{2})",
    re.ASCII,
).fullmatch


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


def _float_json(value: float) -> str:
    if value - value == 0.0:  # finite
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


#: How ``json.dumps`` spells each scalar type a feed record carries,
#: keyed by exact type: a value of any other type (a subclass included)
#: raises ``KeyError`` naming its type instead of being guessed at.
_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
}


def strings_json(values) -> str:
    """A JSON array of strings, in the order given."""
    return "[" + ",".join(map(encode_basestring_ascii, values)) + "]"


@cache
def annotations_json(annotations: frozenset) -> str:
    """The sorted annotation values of one point as a JSON array.

    Memoised per set (at most one entry per subset of
    :class:`~repro.tracking.types.MovementEventType`); sorting makes the
    entry independent of the set's iteration order.
    """
    return strings_json(sorted(a.value for a in annotations))


def alert_fragment(kind, area, since, until, mmsi, mmsi2) -> str:
    """One alert as JSON, keys sorted: :func:`alert_to_dict`'s shape."""
    j = _JSON
    return (
        f'{{"area":{j[type(area)](area)},"kind":{j[type(kind)](kind)},'
        f'"mmsi":{j[type(mmsi)](mmsi)},"mmsi2":{j[type(mmsi2)](mmsi2)},'
        f'"since":{j[type(since)](since)},"until":{j[type(until)](until)}}}'
    )


def point_fragment(
    mmsi, lon, lat, timestamp, annotations: str,
    speed_knots, heading_degrees, duration_seconds,
) -> str:
    """One critical point as JSON, keys sorted: :func:`point_to_dict`'s
    shape.  ``annotations`` is already a JSON array (:func:`annotations_json`)."""
    j = _JSON
    return (
        f'{{"annotations":{annotations},'
        f'"duration_seconds":{j[type(duration_seconds)](duration_seconds)},'
        f'"heading_degrees":{j[type(heading_degrees)](heading_degrees)},'
        f'"lat":{j[type(lat)](lat)},"lon":{j[type(lon)](lon)},'
        f'"mmsi":{j[type(mmsi)](mmsi)},'
        f'"speed_knots":{j[type(speed_knots)](speed_knots)},'
        f'"timestamp":{j[type(timestamp)](timestamp)}}}'
    )


def feed_line(
    kind: str,
    query_time: int,
    raw_positions: int,
    movement_events: int,
    recognized: int,
    alerts: list[str],
    points: list[tuple],
) -> str:
    """The one layout of a feed line: the outer keys in sorted order
    around pre-encoded fragments.

    ``alerts`` are fragments in emission order.  ``points`` are
    ``(mmsi, timestamp, fragment)`` triples, sorted here: a total order
    even for two points of one vessel at one instant.  Vessels are
    disjoint across gateway-cluster shards, so sorting each shard's
    points and the single node's points on the same key makes the fan-in
    merge byte-identical to the single node (docs/GATEWAY.md).
    """
    j = _JSON
    points = sorted(points)
    return (
        f'{{"alerts":[{",".join(alerts)}],'
        f'"critical_points":[{",".join([point[2] for point in points])}],'
        f'"movement_events":{j[type(movement_events)](movement_events)},'
        f'"query_time":{j[type(query_time)](query_time)},'
        f'"raw_positions":{j[type(raw_positions)](raw_positions)},'
        f'"recognized":{j[type(recognized)](recognized)},"type":{j[type(kind)](kind)}}}'
    )


def slide_feed_line(report: SlideReport, kind: str = "slide") -> str:
    """One feed line for a completed slide (or the ``finalize`` flush)."""
    return feed_line(
        kind,
        report.query_time,
        report.raw_positions,
        report.movement_events,
        report.recognized_complex_events,
        [
            alert_fragment(a.kind, a.area, a.since, a.until, a.mmsi, a.mmsi2)
            for a in report.alerts
        ],
        [
            (
                p.mmsi,
                p.timestamp,
                point_fragment(
                    p.mmsi, p.lon, p.lat, p.timestamp,
                    annotations_json(p.annotations), p.speed_knots,
                    p.heading_degrees, p.duration_seconds,
                ),
            )
            for p in report.fresh_points
        ],
    )

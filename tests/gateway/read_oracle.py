"""The gateway read path the one-pass ``GatewayNode._take`` replaced,
kept as its oracle.

A read was parsed whole (``parse_ingest_lines``), routed whole
(:func:`route_many`: one match per single-fragment sentence of the usual
shape and one base64 decode of all their MMSI headers, :func:`decode_mmsis`),
and every sentence formatted again before it was queued.
``tests/gateway/test_node.py`` asserts that :func:`take` and
``GatewayNode._take`` leave the same links, router, counters and fault
hits, and ``tests/gateway/test_routing.py`` that :func:`route_many`
equals ``SentenceRouter.route`` of each sentence.
"""

import re

from repro.ais.messages import HEADER_CHARS, _MMSI_ROW, decode_mmsi
from repro.ais.sixbit import unarmor_many
from repro.gateway.node import GatewayNode
from repro.gateway.routing import SentenceRouter, shard_for_mmsi
from repro.resilience.faults import get_injector
from repro.service.protocol import format_ingest_line, parse_ingest_lines

#: A single-fragment sentence of the usual shape: ``1,1`` framing, a
#: payload without fill bits and two hex checksum digits, with no ``*``
#: and no surrounding whitespace.
_SINGLE = re.compile(
    r"!AIVD[MO],1,1,[^,*]*,[^,*]*,([^,*]+),0\*[0-9A-Fa-f]{2}", re.ASCII
).fullmatch


def decode_mmsis(payloads: list[str]) -> list[int | None]:
    """``decode_mmsi`` of each payload without fill bits: its MMSI, or
    ``None`` where ``decode_mmsi`` would raise.  The headers are
    unarmored together; a batch holding a payload shorter than the
    header, or a header that is not armor, is read one payload at a
    time."""
    headers = [(payload[:HEADER_CHARS], 0) for payload in payloads]
    values = unarmor_many(headers)
    if values is None or any(len(header) < HEADER_CHARS for header, _ in headers):
        mmsis: list[int | None] = []
        for payload in payloads:
            try:
                mmsis.append(decode_mmsi(payload))
            except ValueError:
                mmsis.append(None)
        return mmsis
    shift = 6 * HEADER_CHARS - _MMSI_ROW.end
    return [value >> shift & _MMSI_ROW.mask for value in values]


def route_many(router: SentenceRouter, sentences: list[str]) -> list[int]:
    """``router.route`` of each sentence, in order, with the same
    counters: single-fragment sentences are framed by one match each and
    their MMSIs read together; the rest take ``route``."""
    routes = [0] * len(sentences)
    singles: list[int] = []
    payloads: list[str] = []
    for index, sentence in enumerate(sentences):
        match = _SINGLE(sentence)
        if match is None:
            routes[index] = router.route(sentence)
        else:
            singles.append(index)
            payloads.append(match[1])
    for index, mmsi in zip(singles, decode_mmsis(payloads)):
        if mmsi is None:
            routes[index] = router._unroutable("short_payload")
        else:
            routes[index] = shard_for_mmsi(mmsi, router.backends)
    return routes


def take(node: GatewayNode, lines: list[str], default_time: int) -> None:
    """``node._take(lines)`` as it was, its clock reading
    ``default_time``: parse the read, route it, then format and queue
    each line, one ``send_many`` per link's run."""
    parsed = parse_ingest_lines(lines, default_time)
    if parsed:
        node.registry.inc("gateway.ingest.lines", len(parsed))
    if len(parsed) < len(lines):
        node.registry.inc("gateway.ingest.ignored", len(lines) - len(parsed))
    routes = route_many(node.router, [sentence for _, sentence in parsed])
    injecting = get_injector() is not None
    runs: list[list[str]] = [[] for _ in node.links]
    clock = node._last_time
    late = 0
    for (receive_time, sentence), index in zip(parsed, routes):
        if clock is None or receive_time > clock:
            clock = receive_time
        elif receive_time < clock:
            late += 1
            if clock != node._watermark_time:
                node._flush(runs)
                node._broadcast(clock)
        if injecting and node._injected_drop():
            continue
        runs[index].append(format_ingest_line(receive_time, sentence))
    if late:
        node.registry.inc("gateway.ingest.late_lines", late)
    node._last_time = clock
    node._flush(runs)
    if clock != node._watermark_time:
        node._broadcast(clock)

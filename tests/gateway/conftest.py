"""Shared helpers for the gateway-cluster tests."""

import asyncio

from repro.ais.nmea import unwrap_aivdm


def fragment_groups(sentences):
    """Group ``(receive_time, sentence)`` pairs so that multi-fragment
    messages stay whole — a fragment group must ride one client
    connection or no router could keep it on one runtime."""
    groups, current = [], []
    for pair in sentences:
        parsed = unwrap_aivdm(pair[1])
        current.append(pair)
        if parsed.fragment_number == parsed.fragment_count:
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


def split_round_robin(sentences, ways: int):
    """Deal a time-ordered sentence stream across ``ways`` client
    streams, fragment groups intact.  Each substream stays time-ordered,
    which is the monotonicity contract of watermarked ingest."""
    streams = [[] for _ in range(ways)]
    for index, group in enumerate(fragment_groups(sentences)):
        streams[index % ways].extend(group)
    return streams


async def http_get(host: str, port: int, path: str) -> tuple[int, str]:
    """Minimal HTTP GET against the aggregator, returning (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    status = int(head.split()[1])
    return status, body

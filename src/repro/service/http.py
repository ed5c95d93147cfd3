"""Minimal stdlib HTTP/1.1 API over asyncio streams.

Four read-only endpoints, enough for health checks, Prometheus scrapes
and operational queries — deliberately not a web framework:

* ``GET /healthz`` — liveness plus pipeline/runtime vitals;
* ``GET /metrics`` — the observability registry in Prometheus text
  exposition format (:func:`repro.obs.render_prometheus`);
* ``GET /vessels/{mmsi}`` — the Mobility Tracker's last accepted
  position of the vessel and its velocity vector;
* ``GET /vessels`` — every MMSI the tracker holds, sorted;
* ``GET /alerts?since=N&type=kind,kind`` — recent complex events from
  the alert ring, optionally filtered to a comma-separated set of CE
  kinds (e.g. ``type=rendezvous,darkShip`` for just the pairwise feed);
  filtered-out entries are counted on the registry, never silently
  dropped;
* ``GET /deadletter?limit=N`` — recently quarantined malformed
  sentences with their classified rejection reasons.

Connections are ``Connection: close``; every response carries a
Content-Length so ``curl`` and the smoke tests behave.
"""

import asyncio
import json
from urllib.parse import parse_qs, unquote, urlsplit

from repro import obs
from repro.maritime.definitions import ALL_CE_NAMES
from repro.obs.registry import render_prometheus
from repro.tracking.types import VelocityVector

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed"}


async def respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload,
    content_type: str = "application/json",
) -> None:
    """Write one response: a ``str`` payload verbatim, anything else as JSON."""
    if isinstance(payload, str):
        body = payload.encode()
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    writer.write(head.encode("ascii") + body)
    await writer.drain()


async def serve_request(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, route
) -> None:
    """Answer the one request of a connection, then close it.

    ``route(target) -> (status, payload, content_type)`` sees well-formed
    ``GET`` requests only; anything else is answered 400/405 here.  The
    per-runtime API and the cluster aggregator
    (:mod:`repro.gateway.aggregator`) both serve through this.
    """
    try:
        request_line = await reader.readline()
        if not request_line:
            return
        parts = request_line.decode("ascii", errors="replace").split()
        if len(parts) != 3:
            await respond(writer, 400, {"error": "malformed request"})
            return
        method, target, _version = parts
        # Drain headers; the dialect is GET-only so bodies are ignored.
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
        if method != "GET":
            await respond(
                writer, 405, {"error": f"method {method} not allowed"}
            )
            return
        await respond(writer, *route(target))
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class HttpApi:
    """The query/metrics endpoint server."""

    def __init__(self, supervisor, host: str, port: int):
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_request(reader, writer, self._route)

    def _route(self, target: str):
        obs.count("service.http.requests")
        split = urlsplit(target)
        path = unquote(split.path).rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/healthz":
            return 200, self.supervisor.health(), "application/json"
        if path == "/metrics":
            text = render_prometheus(obs.get_registry())
            return 200, text, "text/plain; version=0.0.4; charset=utf-8"
        if path == "/vessels":
            return (
                200,
                {"vessels": self.supervisor.system.tracker.mmsis()},
                "application/json",
            )
        if path.startswith("/vessels/"):
            return self._vessel(path.removeprefix("/vessels/"))
        if path == "/alerts":
            return self._alerts(query)
        if path == "/deadletter":
            return self._deadletter(query)
        return 404, {"error": f"no such endpoint: {path}"}, "application/json"

    def _deadletter(self, query: dict):
        try:
            limit = int(query.get("limit", ["50"])[0])
        except ValueError:
            return 400, {"error": "limit must be an integer"}, "application/json"
        if limit < 0:
            return 400, {"error": "limit must be >= 0"}, "application/json"
        return (
            200,
            self.supervisor.batcher.deadletter.snapshot(limit),
            "application/json",
        )

    def _vessel(self, raw_mmsi: str):
        try:
            mmsi = int(raw_mmsi)
        except ValueError:
            return 400, {"error": f"invalid mmsi: {raw_mmsi}"}, "application/json"
        tracker = self.supervisor.system.tracker
        last = tracker.last_position(mmsi)
        if last is None:
            return 404, {"error": f"vessel {mmsi} not seen"}, "application/json"
        # A vessel with one accepted fix has no velocity vector yet.
        velocity = tracker.current_velocity(mmsi) or VelocityVector(0.0, 0.0)
        snapshot = {
            "mmsi": mmsi,
            "lon": last.lon,
            "lat": last.lat,
            "timestamp": last.timestamp,
            "speed_mps": velocity.speed_mps,
            "speed_knots": velocity.speed_knots,
            "heading_degrees": velocity.heading_degrees,
        }
        return 200, snapshot, "application/json"

    def _alerts(self, query: dict):
        try:
            since = int(query.get("since", ["0"])[0])
        except ValueError:
            return 400, {"error": "since must be an integer"}, "application/json"
        raw_types = query.get("type", [None])[0]
        kinds: set[str] | None = None
        if raw_types is not None:
            kinds = {
                part.strip() for part in raw_types.split(",") if part.strip()
            }
            unknown = sorted(kinds - set(ALL_CE_NAMES))
            if not kinds or unknown:
                return (
                    400,
                    {
                        "error": "type must name known CE kinds",
                        "unknown": unknown,
                        "known": sorted(ALL_CE_NAMES),
                    },
                    "application/json",
                )
        ring = self.supervisor.alert_ring
        entries = ring.since(since)
        if kinds is not None:
            kept = [entry for entry in entries if entry["kind"] in kinds]
            # The filter is an explicit drop: account for it so feed
            # consumers can audit what their subscription excluded.
            obs.count("service.http.alerts_filtered", len(entries) - len(kept))
            entries = kept
        return (
            200,
            {"alerts": entries, "last_seq": ring.last_seq},
            "application/json",
        )

"""Pluggable wire protocols for the live service (docs/GATEWAY.md).

The service's two streaming surfaces — ``!AIVDM`` ingest in, JSON feed
lines out — speak one of two wires: newline TCP (the default,
byte-compatible with the pre-transport wire, and how AIS receivers and
aggregators serve a feed) or RFC 6455 WebSocket text frames (the wire of
hosted AIS streams).  Both are stdlib-only and pass one shared
conformance suite; each also has a ``chaos+``-prefixed variant wrapped in
deterministic network chaos (:mod:`repro.transport.chaosnet`) for
partition drills.

Config objects store the transport *name*
(``ServiceConfig.ingest_transport``), so a deployment's wire protocol is
one flag, not code.
"""

from repro.transport.base import (
    MODES,
    Transport,
    TransportError,
    TransportSession,
)
from repro.transport.chaosnet import ChaosNetTransport
from repro.transport.tcp import TcpTransport
from repro.transport.websocket import WebSocketTransport

#: The default wire protocol — byte-compatible with the pre-transport
#: service (newline-delimited text over TCP).
DEFAULT_TRANSPORT = "tcp"

_FACTORIES = {
    "tcp": TcpTransport,
    "websocket": WebSocketTransport,
    # The same wires in deterministic network chaos: same protocol,
    # hostile network.
    "chaos+tcp": lambda: ChaosNetTransport(TcpTransport()),
    "chaos+websocket": lambda: ChaosNetTransport(WebSocketTransport()),
}


def available_transports() -> tuple[str, ...]:
    """Transport names, sorted for stable CLI help."""
    return tuple(sorted(_FACTORIES))


def create_transport(name: str = DEFAULT_TRANSPORT) -> Transport:
    """Instantiate the named transport adapter."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown transport {name!r}; available: "
            f"{', '.join(available_transports())}"
        ) from None
    return factory()


__all__ = [
    "DEFAULT_TRANSPORT",
    "MODES",
    "ChaosNetTransport",
    "TcpTransport",
    "Transport",
    "TransportError",
    "TransportSession",
    "WebSocketTransport",
    "available_transports",
    "create_transport",
]

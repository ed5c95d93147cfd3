"""The transport registry: names to adapter factories.

A flat name→factory map, a ``create_transport`` lookup with a helpful
error, and ``available_transports`` for CLI choices.  Config objects
store the *name* (``ServiceConfig.ingest_transport``), so a deployment's
wire protocol is one flag, not code.
"""

from repro.transport.base import Transport
from repro.transport.chaosnet import ChaosNetTransport
from repro.transport.httpforward import HttpForwardTransport
from repro.transport.tcp import TcpTransport
from repro.transport.websocket import WebSocketTransport

#: The default wire protocol — byte-compatible with the pre-transport
#: service (newline-delimited text over TCP).
DEFAULT_TRANSPORT = "tcp"


def _chaos(factory):
    """A factory for the chaos-wrapped variant of a base transport."""
    return lambda: ChaosNetTransport(factory())


_FACTORIES: dict = {
    TcpTransport.name: TcpTransport,
    WebSocketTransport.name: WebSocketTransport,
    HttpForwardTransport.name: HttpForwardTransport,
    # Every base wire wrapped in deterministic network chaos
    # (repro.transport.chaosnet): same protocol, hostile network.
    "chaos+tcp": _chaos(TcpTransport),
    "chaos+websocket": _chaos(WebSocketTransport),
    "chaos+http": _chaos(HttpForwardTransport),
}


def register(name: str, factory) -> None:
    """Add (or replace) a transport factory under ``name``."""
    if not name:
        raise ValueError("transport name must be non-empty")
    _FACTORIES[name] = factory


def available_transports() -> tuple[str, ...]:
    """Registered transport names, sorted for stable CLI help."""
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

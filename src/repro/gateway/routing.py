"""MMSI-hash routing of raw ``!AIVDM`` sentences to backend runtimes.

The cluster's byte-identity contract rests on one invariant: every
sentence of a vessel reaches the *same* backend runtime, in order.  The
router decides ownership from the MMSI carried in bits 8–38 of any AIS
payload, without decoding the rest of the message, and hashes it with
the sharded runtime's own :func:`~repro.runtime.shard.shard_for_mmsi`.

Multi-fragment messages only carry the MMSI in their first fragment, so
the router remembers ``(channel, message id)`` of an opened fragment
group and steers the continuation fragments to the same backend — the
backend's own fragment assembler then sees the complete group, exactly
as a single node would.  Anything unroutable (bad checksum, truncated
payload, an orphan continuation) goes deterministically to backend 0,
counted, where the backend's dead-letter machinery classifies it just
like a single node's would.
"""

from repro.ais.nmea import unwrap_aivdm
from repro.ais.sixbit import payload_to_bits
from repro.obs.registry import MetricsRegistry
from repro.runtime.shard import shard_for_mmsi

#: Open fragment groups remembered at once; beyond this the oldest is
#: evicted (and counted) — an abandoned group must not leak memory.
PENDING_FRAGMENT_CAPACITY = 1024


def mmsi_of_payload(payload: str, fill_bits: int) -> int | None:
    """MMSI from bits 8–38 of an AIS payload, or ``None`` if truncated."""
    try:
        bits = payload_to_bits(payload, fill_bits)
    except ValueError:
        return None
    if len(bits) < 38:
        return None
    value = 0
    for bit in bits[8:38]:
        value = (value << 1) | bit
    return value


class SentenceRouter:
    """Stateful, fragment-aware sentence → backend-index routing."""

    def __init__(self, backends: int, registry: MetricsRegistry):
        if backends < 1:
            raise ValueError(f"backends must be >= 1: {backends}")
        self.backends = backends
        self.registry = registry
        #: (channel, message id) → backend of an open fragment group.
        self._pending: dict[tuple[str, str], int] = {}

    def route(self, sentence: str) -> int:
        """The backend index owning this sentence (0 when unroutable)."""
        try:
            parsed = unwrap_aivdm(sentence)
        except ValueError:
            return self._unroutable("unparseable")
        if parsed.fragment_count > 1 and parsed.fragment_number > 1:
            key = (parsed.channel, parsed.message_id)
            if parsed.fragment_number == parsed.fragment_count:
                backend = self._pending.pop(key, None)
            else:
                backend = self._pending.get(key)
            if backend is None:
                return self._unroutable("orphan_fragment")
            return backend
        mmsi = mmsi_of_payload(parsed.payload, parsed.fill_bits)
        if mmsi is None:
            return self._unroutable("short_payload")
        backend = shard_for_mmsi(mmsi, self.backends)
        if parsed.fragment_count > 1:
            self._remember(
                (parsed.channel, parsed.message_id), backend
            )
        return backend

    def _remember(self, key: tuple[str, str], backend: int) -> None:
        self._pending[key] = backend
        if len(self._pending) > PENDING_FRAGMENT_CAPACITY:
            # Drop the stalest abandoned group — counted, never silent.
            oldest = next(iter(self._pending))
            del self._pending[oldest]
            self.registry.inc("gateway.route.fragment_groups_dropped")

    def _unroutable(self, reason: str) -> int:
        """Deterministic fallback: backend 0 quarantines it (counted)."""
        self.registry.inc("gateway.route.unroutable")
        self.registry.inc(f"gateway.route.unroutable.{reason}")
        return 0

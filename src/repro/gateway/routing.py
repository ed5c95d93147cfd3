"""MMSI-hash routing of raw ``!AIVDM`` sentences to backend runtimes.

The cluster's byte-identity contract rests on one invariant: every
sentence of a vessel reaches the *same* backend runtime, in order.  The
router decides ownership from the MMSI in the header of any AIS payload
(its first 7 armored characters, read through the layout table of
:mod:`repro.ais.messages`) without decoding the rest of the message, and
hashes it with :func:`shard_for_mmsi`.  A payload with an invalid
character past the header still routes by its MMSI; the owning
backend's scanner rejects it exactly as a single node's would.

The router reads the framing (:func:`~repro.ais.nmea.frame_aivdm`) but
does not verify the checksum: the owning backend's scanner is the one
checksum per sentence, so the runtime still trusts nothing it receives.
A sentence with a bad checksum therefore routes by the MMSI its header
carries, and that backend quarantines it as ``bad_checksum``.

:meth:`SentenceRouter.route` frames one sentence, and a bounded memo
holds the backend of every header that decoded, one entry per vessel; a
header that does not decode is read, and counted, every time.  A usual
single-fragment sentence without fill bits is owned by its header
alone, so :meth:`SentenceRouter.route_header` routes it by the memo
without framing it.

Multi-fragment messages only carry the MMSI in their first fragment, so
the router remembers the group key
(:attr:`~repro.ais.nmea.AivdmSentence.group_key`) of an opened fragment
group and steers the continuation fragments to the same backend — the
backend's own fragment assembler keys groups the same way, so it sees
the complete group exactly as a single node would.  Anything unroutable
(broken framing, truncated payload, an orphan continuation) goes
deterministically to backend 0, counted, where the backend's dead-letter
machinery classifies it just like a single node's would.
"""

from repro.ais.messages import HEADER_CHARS, decode_mmsi
from repro.ais.nmea import frame_aivdm
from repro.obs.registry import MetricsRegistry

#: Open fragment groups remembered at once; beyond this the oldest is
#: evicted (and counted) — an abandoned group must not leak memory.
PENDING_FRAGMENT_CAPACITY = 1024

#: Headers a router memoizes at most, with their backends; the memo is
#: cleared when full, so distinct headers cost bounded memory.
HEADER_MEMO_CAPACITY = 1 << 16

#: Knuth's multiplicative constant (2^32 / phi), for MMSI mixing; spreads
#: consecutive MMSIs (fleets are often numbered in blocks) evenly.
_MIX = 2654435761
_MASK = 0xFFFFFFFF


def shard_for_mmsi(mmsi: int, shards: int) -> int:
    """The backend runtime owning a vessel in a gateway cluster;
    deterministic across processes."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return ((mmsi * _MIX) & _MASK) % shards


def mmsi_of_payload(payload: str, fill_bits: int) -> int | None:
    """MMSI from the header of an AIS payload, or ``None`` if unreadable."""
    try:
        return decode_mmsi(payload, fill_bits)
    except ValueError:
        return None


class SentenceRouter:
    """Stateful, fragment-aware sentence → backend-index routing."""

    def __init__(self, backends: int, registry: MetricsRegistry):
        if backends < 1:
            raise ValueError(f"backends must be >= 1: {backends}")
        self.backends = backends
        self.registry = registry
        #: Group key → backend of an open fragment group.
        self._pending: dict[tuple[str, str, int], int] = {}
        #: Header → backend of every header that decoded (:meth:`_owner`).
        self._owners: dict[str, int] = {}

    def route(self, sentence: str) -> int:
        """The backend index owning this sentence (0 when unroutable),
        framed by :func:`~repro.ais.nmea.frame_aivdm`."""
        try:
            parsed = frame_aivdm(sentence)
        except ValueError:
            return self._unroutable("unparseable")
        if parsed.fragment_count > 1 and parsed.fragment_number > 1:
            key = parsed.group_key
            if parsed.fragment_number == parsed.fragment_count:
                backend = self._pending.pop(key, None)
            else:
                backend = self._pending.get(key)
            if backend is None:
                return self._unroutable("orphan_fragment")
            return backend
        backend = self._owner(parsed.payload, parsed.fill_bits)
        if backend is None:
            return self._unroutable("short_payload")
        if parsed.fragment_count > 1:
            self._remember(parsed.group_key, backend)
        return backend

    def route_header(self, header: str, sentence: str) -> int:
        """:meth:`route` of a single-fragment ``sentence`` without fill
        bits whose payload starts with the 7 characters ``header``
        (:data:`~repro.service.protocol.CANONICAL_INGEST_LINE`): its
        owner depends on the header alone, so a memoized header skips
        the framing."""
        backend = self._owners.get(header)
        return self.route(sentence) if backend is None else backend

    def _owner(self, payload: str, fill_bits: int) -> int | None:
        """The backend owning a payload's MMSI, ``None`` if unreadable.

        Fill bits reach the header only when it is the whole payload;
        any other header that decodes is memoized, and one that does not
        is decoded again every time."""
        if fill_bits and len(payload) <= HEADER_CHARS:
            mmsi = mmsi_of_payload(payload, fill_bits)
            return None if mmsi is None else shard_for_mmsi(mmsi, self.backends)
        header = payload[:HEADER_CHARS]
        backend = self._owners.get(header)
        if backend is None:
            mmsi = mmsi_of_payload(header, 0)
            if mmsi is None:
                return None
            if len(self._owners) >= HEADER_MEMO_CAPACITY:
                self._owners.clear()
            backend = self._owners[header] = shard_for_mmsi(mmsi, self.backends)
        return backend

    def _remember(self, key: tuple[str, str, int], backend: int) -> None:
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
